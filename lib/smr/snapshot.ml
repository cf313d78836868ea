type t = {
  version : int;
  base : int;
  ops : int;
  digest : int;
  log_len : int;
  batches : Consensus.Value.t list list;
  built_at : int;
}

let mix h c = (h * 1000003) lxor c

let build ~version ~base ~ops ~digest ~batches ~tick =
  { version; base; ops; digest; log_len = version - base; batches; built_at = tick }

module Store = struct
  type snapshot = t

  type nonrec t = {
    cell : snapshot option Atomic.t;
    pubs : int Atomic.t;
  }

  let make () = { cell = Atomic.make None; pubs = Atomic.make 0 }

  let rec publish s snap =
    let cur = Atomic.get s.cell in
    match cur with
    | Some c when c.version >= snap.version -> false
    | _ ->
      if Atomic.compare_and_set s.cell cur (Some snap) then begin
        Atomic.incr s.pubs;
        true
      end
      else publish s snap

  let current s = Atomic.get s.cell
  let published s = Atomic.get s.pubs
end
