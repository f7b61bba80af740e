open Bigarray

type matrix = (float, float64_elt, c_layout) Array1.t

let create len : matrix = Array1.create Float64 C_layout len

let zero (a : matrix) len = Array1.fill (Array1.sub a 0 len) 0.0

(* The scaled pivot row's nonzeros, compacted: column [nz.(k)] holds
   [value.(k)]. *)
type scratch = { nz : int array; value : float array }

let scratch width = { nz = Array.make width 0; value = Array.make width 0.0 }

(* Subtract [f] times the compacted pivot row from the row starting at
   [rbase].  A function of its own, unrolled by four: inside [pivot]'s
   loop nest the compiler spills the loop state to the stack, and the
   per-iteration branch and poll cost as much as the arithmetic. *)
let update (a : matrix) rbase f (nz : int array) (value : float array) count =
  let k = ref 0 in
  while !k + 4 <= count do
    let k0 = !k in
    let i0 = rbase + Array.unsafe_get nz k0
    and i1 = rbase + Array.unsafe_get nz (k0 + 1)
    and i2 = rbase + Array.unsafe_get nz (k0 + 2)
    and i3 = rbase + Array.unsafe_get nz (k0 + 3) in
    Array1.unsafe_set a i0
      (Array1.unsafe_get a i0 -. (f *. Array.unsafe_get value k0));
    Array1.unsafe_set a i1
      (Array1.unsafe_get a i1 -. (f *. Array.unsafe_get value (k0 + 1)));
    Array1.unsafe_set a i2
      (Array1.unsafe_get a i2 -. (f *. Array.unsafe_get value (k0 + 2)));
    Array1.unsafe_set a i3
      (Array1.unsafe_get a i3 -. (f *. Array.unsafe_get value (k0 + 3)));
    k := k0 + 4
  done;
  for k = !k to count - 1 do
    let i = rbase + Array.unsafe_get nz k in
    Array1.unsafe_set a i
      (Array1.unsafe_get a i -. (f *. Array.unsafe_get value k))
  done

let pivot (a : matrix) ~width ~rows ~row ~col ~(factor : float array)
    { nz; value } =
  if row < 0 || row >= rows || Array1.dim a < rows * width
     || Array.length factor < rows || Array.length nz < width
     || col >= width
  then invalid_arg "Elim.pivot";
  let base = row * width in
  let inv = 1.0 /. Array.unsafe_get factor row in
  (* Scale the pivot row and record where it is nonzero: only those
     columns can change in the other rows. *)
  let count = ref 0 in
  for j = 0 to width - 1 do
    let v = if j = col then 1.0 else Array1.unsafe_get a (base + j) *. inv in
    Array1.unsafe_set a (base + j) v;
    if v <> 0.0 then begin
      Array.unsafe_set nz !count j;
      Array.unsafe_set value !count v;
      incr count
    end
  done;
  let count = !count in
  for r = 0 to rows - 1 do
    let f = Array.unsafe_get factor r in
    if r <> row && Float.abs f > 0.0 then begin
      let rbase = r * width in
      update a rbase f nz value count;
      if col >= 0 then Array1.unsafe_set a (rbase + col) 0.0
    end
  done
