(* The BGP decision process (RFC 4271 §9.1 order, restricted to the
   attributes this single-router-per-AS emulation carries):

   1. higher LOCAL_PREF
   2. locally originated over learned
   3. shorter AS_PATH
   4. lower ORIGIN (IGP < EGP < Incomplete)
   5. lower MED (compared across all candidates, i.e. always-compare-med,
      which is well-defined in a deterministic emulation)
   6. lower neighbor ASN (stands in for the lowest-router-id tiebreak)

   The order is total and deterministic, so route selection — and hence the
   whole emulation — is reproducible.  A route is its attrs: steps 2 and 6
   read its AS path (empty for a local route, headed by the neighbor for a
   learned one) without building a [Route.source]. *)

let source_rank r = if Route.is_local r then 0 else 1

(* Straight-line comparisons: this is the single hottest comparator in the
   emulation (every decision-process run calls it per candidate pair), so
   it must not allocate — no closure lists, each step evaluated only when
   the previous ones tie. *)
let compare (a : Route.t) (b : Route.t) =
  let c = Int.compare b.Attrs.local_pref a.Attrs.local_pref in
  if c <> 0 then c
  else
    let c = Int.compare (source_rank a) (source_rank b) in
    if c <> 0 then c
    else
      let c = Int.compare (Attrs.path_length a) (Attrs.path_length b) in
      if c <> 0 then c
      else
        let c = Int.compare (Attrs.origin_rank a.Attrs.origin) (Attrs.origin_rank b.Attrs.origin) in
        if c <> 0 then c
        else
          let c = Int.compare a.Attrs.med b.Attrs.med in
          if c <> 0 then c else Int.compare (Route.neighbor a) (Route.neighbor b)

let better a b = compare a b < 0

let select = function
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun best r -> if better r best then r else best) first rest)

