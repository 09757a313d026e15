(* Tests of the benchmark's own helpers: the tail-percentile rule and
   the correctness gate. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  expect "10 of 1000 samples lie beyond p99" (Timing.beyond ~n:1000 0.99 = 10);
  expect "p99 refused on 999 samples" (Result.is_error (Timing.tail (samples 999) 0.99));
  expect "p99 reported on 1000 samples" (Result.is_ok (Timing.tail (samples 1000) 0.99));
  expect "p90 refused on 99 samples" (Result.is_error (Timing.tail (samples 99) 0.9));
  expect "p50 reported on 20 samples" (Timing.tail (samples 20) 0.5 = Ok 10.5)

let () =
  let g = Gate.create () in
  ignore (Gate.run g "rep" (fun () -> Gate.digest g ~label:"rep" ~expected:(Some "abc") "abc"));
  expect "matching digest passes" (Gate.correct g && Gate.attempted g = 1 && Gate.failed g = 0);
  let g = Gate.create () in
  ignore (Gate.run g "rep" (fun () -> Gate.digest g ~label:"rep" ~expected:(Some "abc") "abd"));
  ignore (Gate.run g "rep" (fun () -> Gate.digest g ~label:"rep" ~expected:(Some "abc") "abc"));
  expect "wrong expected digest counts as a failed run"
    ((not (Gate.correct g)) && Gate.attempted g = 2 && Gate.failed g = 1);
  let g = Gate.create () in
  ignore
    (Gate.run g "rep" (fun () ->
         Gate.check g false "first";
         Gate.check g false "second"));
  expect "an operation fails at most once" (Gate.failed g = 1 && List.length (Gate.problems g) = 2);
  let g = Gate.create () in
  expect "an exception fails the operation"
    (Gate.run g "rep" (fun () -> failwith "boom") = None && Gate.failed g = 1);
  let g = Gate.create () in
  ignore (Gate.run g "rep" (fun () -> Gate.digest g ~label:"rep" ~expected:None "abd"));
  expect "no reference, no failure" (Gate.correct g);
  expect "nothing attempted is not correct" (not (Gate.correct (Gate.create ())))

let () = if !failures > 0 then exit 1
