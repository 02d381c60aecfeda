(* CRC-32 (ISO 3309 / zlib polynomial, reflected 0xEDB88320), slicing-by-8.
   Pure OCaml so the simulator stays dependency-free; ints are 63-bit on
   every platform we build for, so the 32-bit value fits in a plain [int].

   [table] holds eight 256-entry tables back to back: slice 0 is the
   classic bytewise table, and slice k maps a byte to its contribution
   k bytes further back,
     t_k.(n) = (t_(k-1).(n) lsr 8) lxor t_0.(t_(k-1).(n) land 0xff).
   One step folds eight input bytes with eight lookups: the four bytes
   mixed with the running CRC and the next four raw bytes. *)

let poly = 0xEDB88320

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor poly else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Every index below is a byte (land 0xff or a char code) offset by a
   slice base under 8 * 256, and every string read is below [len]. *)
let[@inline] tab slice i = Array.unsafe_get table ((slice lsl 8) lor i)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let update crc s =
  let len = String.length s in
  let crc = ref (crc lxor 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 8 <= len do
    let p = !i in
    let c = !crc in
    crc :=
      tab 7 ((c lxor byte s p) land 0xff)
      lxor tab 6 (((c lsr 8) lxor byte s (p + 1)) land 0xff)
      lxor tab 5 (((c lsr 16) lxor byte s (p + 2)) land 0xff)
      lxor tab 4 (((c lsr 24) lxor byte s (p + 3)) land 0xff)
      lxor tab 3 (byte s (p + 4))
      lxor tab 2 (byte s (p + 5))
      lxor tab 1 (byte s (p + 6))
      lxor tab 0 (byte s (p + 7));
    i := p + 8
  done;
  while !i < len do
    let c = !crc in
    crc := tab 0 ((c lxor byte s !i) land 0xff) lxor (c lsr 8);
    incr i
  done;
  !crc lxor 0xFFFFFFFF

let string s = update 0 s
