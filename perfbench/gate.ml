type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable current_failed : bool;
  mutable problems : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; current_failed = false; problems = [] }
let attempted t = t.attempted
let failed t = t.failed
let correct t = t.attempted > 0 && t.failed = 0
let problems t = List.rev t.problems

let max_problems = 20

let fail t msg =
  if List.length t.problems < max_problems then t.problems <- msg :: t.problems;
  if not t.current_failed then begin
    t.current_failed <- true;
    t.failed <- t.failed + 1
  end

let run t label f =
  t.attempted <- t.attempted + 1;
  t.current_failed <- false;
  match f () with
  | v -> Some v
  | exception e ->
      fail t (Printf.sprintf "%s: %s" label (Printexc.to_string e));
      None

let check t ok msg = if not ok then fail t msg

let digest t ~label ~expected actual =
  match expected with
  | Some e when e <> actual ->
      fail t (Printf.sprintf "%s: digest %s, expected %s" label actual e)
  | _ -> ()
