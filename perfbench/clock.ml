(* The benchmark's only host clock: CLOCK_MONOTONIC in nanoseconds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9
