(** A solver gate for tests that need jobs to stay queued.

    The scheduler dispatches as soon as a batch can keep every solver
    thread busy, so a test cannot rely on a long batch window to hold jobs
    in the queue.  Instead it wraps its solver with {!solver}, submits one
    blocker job and calls {!await}: the blocker's batch is then in flight
    and parked in the solver, and every job submitted afterwards stays
    queued until {!release}.  Every solve passes the same turnstile, so
    the gate holds each shard's first solve. *)

type t = {
  entered : Semaphore.Counting.t;  (* one release per solve that reached the gate *)
  turnstile : Semaphore.Binary.t;  (* closed until [release] *)
}

let create () =
  { entered = Semaphore.Counting.make 0; turnstile = Semaphore.Binary.make false }

let solver g inner ~deadline p =
  Semaphore.Counting.release g.entered;
  Semaphore.Binary.acquire g.turnstile;
  Semaphore.Binary.release g.turnstile;
  inner ~deadline p

(** Block until [n] solves (default 1) have reached the gate. *)
let await ?(n = 1) g =
  for _ = 1 to n do
    Semaphore.Counting.acquire g.entered
  done

(** Open the turnstile for good: held and later solves run. *)
let release g = Semaphore.Binary.release g.turnstile
