(** The Chandra–Toueg rotating-coordinator consensus algorithm using
    the eventually-strong detector [<>S] [CT96, Fig. 6] — the other
    classical detector-based consensus, included as a baseline next to
    Mostéfaoui–Raynal.

    Rounds rotate the coordinator role ([c = (r-1) mod n]). Each round:

    + everyone sends its timestamped estimate to the coordinator;
    + the coordinator collects a majority of estimates and proposes
      the one with the highest timestamp;
    + everyone waits for the proposal {e or} for [<>S] to suspect the
      coordinator: on the proposal it adopts it (stamping it with the
      round) and acknowledges; on suspicion it refuses;
    + the coordinator collects a majority of replies; if all of them
      are acknowledgements it reliably broadcasts the decision
      (receivers re-broadcast DECIDE once before deciding).

    Requires a correct majority ([t < n/2]); the majority intersection
    through the timestamp locking gives {e uniform} agreement. Each
    step expects the failure-detector value [Suspects s] (or
    [Pair (_, Suspects s)]). *)

type message =
  | Est of { round : int; est : Value.t; ts : int }
  | Prop of { round : int; value : Value.t }
  | Ack of { round : int }
  | Nack of { round : int }
  | Decide of { value : Value.t }

include Spec.S with type message := message
