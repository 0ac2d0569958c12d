(* Array-backed binary min-heap, polymorphic in the element type with an
   explicit comparison supplied at creation.  Used by the reference
   Dijkstra in [Shortest_paths]; the scheduler keeps its own
   event-specialized heap. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  cmp : 'a -> 'a -> int;
  dummy : 'a;
}

let create ?(capacity = 64) ~dummy cmp =
  let capacity = Stdlib.max capacity 1 in
  { data = Array.make capacity dummy; size = 0; cmp; dummy }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let data = Array.make (2 * Array.length h.data) h.dummy in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < h.size && h.cmp h.data.(left) h.data.(!smallest) < 0 then
    smallest := left;
  if right < h.size && h.cmp h.data.(right) h.data.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  if h.size = Array.length h.data then grow h;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- h.dummy;
    if h.size > 0 then sift_down h 0;
    Some top
  end

let clear h =
  Array.fill h.data 0 h.size h.dummy;
  h.size <- 0

let to_list h = Array.to_list (Array.sub h.data 0 h.size)
