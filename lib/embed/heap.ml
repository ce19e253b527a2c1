(* Indexed 4-ary min-heap of (float priority, int payload) pairs for
   Dijkstra inside the minor embedder.  Int-specialized: parallel unboxed
   arrays, no tuple boxing.  4-ary because the pop loop dominates Dijkstra:
   sift-down visits half the levels of a binary heap, trading two extra
   (cache-resident) compares per level for half the stores.  [pos]/[stamp]
   track each payload's heap slot so a relaxation becomes a decrease-key (a
   partial sift-up) instead of a duplicate insert — each node is popped at
   most once per Dijkstra, with no stale entries to skip.  [stamp]/[epoch]
   invalidate the position index in O(1) at [clear]; a payload's slot is
   meaningful only when [stamp.(payload) = epoch], and a settled (popped)
   payload keeps its stamp with [pos = -1]. *)

type t = {
  mutable prio : float array;
  mutable payload : int array;
  mutable size : int;
  mutable pos : int array;  (* payload -> slot; -1 once popped this epoch *)
  mutable stamp : int array;
  mutable epoch : int;
}

let create () =
  { prio = Array.make 16 0.0;
    payload = Array.make 16 (-1);
    size = 0;
    pos = [||];
    stamp = [||];
    epoch = 0 }

let is_empty h = h.size = 0

let clear h =
  h.size <- 0;
  h.epoch <- h.epoch + 1

let ensure h capacity =
  if Array.length h.pos < capacity then begin
    (* Fresh stamps are 0 < epoch ([clear] always runs before pushes), so
       every slot starts invalid. *)
    h.pos <- Array.make capacity (-1);
    h.stamp <- Array.make capacity 0
  end

(* Hole-shifting sift-up from slot [i], maintaining the position index. *)
let sift_up h i priority payload =
  let prio = h.prio and pay = h.payload and pos = h.pos in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if Array.unsafe_get prio parent > priority then begin
      let pp = Array.unsafe_get pay parent in
      Array.unsafe_set prio !i (Array.unsafe_get prio parent);
      Array.unsafe_set pay !i pp;
      Array.unsafe_set pos pp !i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prio !i priority;
  Array.unsafe_set pay !i payload;
  Array.unsafe_set pos payload !i

let push h priority payload =
  if Array.unsafe_get h.stamp payload = h.epoch then
    (* Already queued: decrease-key in place.  (Dijkstra never relaxes a
       settled node, so [pos] is a live slot here.) *)
    sift_up h (Array.unsafe_get h.pos payload) priority payload
  else begin
    if h.size = Array.length h.prio then begin
      let bigger_prio = Array.make (2 * h.size) 0.0 in
      let bigger_payload = Array.make (2 * h.size) (-1) in
      Array.blit h.prio 0 bigger_prio 0 h.size;
      Array.blit h.payload 0 bigger_payload 0 h.size;
      h.prio <- bigger_prio;
      h.payload <- bigger_payload
    end;
    Array.unsafe_set h.stamp payload h.epoch;
    let i = h.size in
    h.size <- h.size + 1;
    sift_up h i priority payload
  end

let min_priority h = h.prio.(0)
let min_payload h = h.payload.(0)

let remove_min h =
  if h.size = 0 then invalid_arg "Heap.remove_min: empty heap";
  h.pos.(h.payload.(0)) <- -1;
  h.size <- h.size - 1;
  if h.size > 0 then begin
    let prio = h.prio and pay = h.payload and pos = h.pos in
    let priority = Array.unsafe_get prio h.size in
    let payload = Array.unsafe_get pay h.size in
    (* Floyd's sift-down: the replacement element comes from the bottom of
       the heap, so it almost always belongs near a leaf — walk the
       min-child path all the way down without comparing against it
       (saving a compare per level), then sift up the short distance. *)
    let i = ref 0 in
    let first = ref 1 in
    while !first < h.size do
      let last =
        let l = !first + 3 in
        if l < h.size then l else h.size - 1
      in
      let smallest = ref !first in
      let smallest_prio = ref (Array.unsafe_get prio !first) in
      for c = !first + 1 to last do
        let cp = Array.unsafe_get prio c in
        if cp < !smallest_prio then begin
          smallest := c;
          smallest_prio := cp
        end
      done;
      let sp = Array.unsafe_get pay !smallest in
      Array.unsafe_set prio !i !smallest_prio;
      Array.unsafe_set pay !i sp;
      Array.unsafe_set pos sp !i;
      i := !smallest;
      first := (4 * !i) + 1
    done;
    sift_up h !i priority payload
  end
