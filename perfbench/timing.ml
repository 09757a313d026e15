let min_beyond = 10

(* The tolerance keeps 1000 * (1 - 0.99) from flooring to 9. *)
let beyond ~n q = int_of_float (Float.of_int n *. (1.0 -. q) +. 1e-9)

let tail xs q =
  let n = Array.length xs in
  let k = beyond ~n q in
  if k < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has only %d beyond it (need %d)"
         (q *. 100.0) n k min_beyond)
  else Ok (Stats.quantile xs q)
