(** Intrusive doubly-linked LRU list.

    The DRAM-resident replacement structure of both Tinca (§4.6) and
    Flashcache.  Callers hold onto the ['a node] returned at insertion so
    [touch]/[remove] are O(1). *)

type 'a t
type 'a node

val create : unit -> 'a t
val length : 'a t -> int

(** Insert as most-recently-used; returns the handle. *)
val push_mru : 'a t -> 'a -> 'a node

(** [push_before t next v] inserts [v] just before [next], on its LRU
    side; returns the handle. *)
val push_before : 'a t -> 'a node -> 'a -> 'a node

(** Move an existing node to the MRU end. *)
val touch : 'a t -> 'a node -> unit

(** Unlink a node.  Safe to call once; a second call raises
    [Invalid_argument]. *)
val remove : 'a t -> 'a node -> unit

val value : 'a node -> 'a

(** The neighbours of a linked node: towards the LRU end, and towards
    the MRU end. *)
val prev : 'a node -> 'a node option

val next : 'a node -> 'a node option

(** Least-recently-used node, if any. *)
val lru : 'a t -> 'a node option

(** Most-recently-used node, if any. *)
val mru : 'a t -> 'a node option

(** [find_from_lru t ~f] — first node from the LRU end whose value
    satisfies [f] (victim selection that skips pinned blocks). *)
val find_from_lru : 'a t -> f:('a -> bool) -> 'a node option

(** Iterate values from LRU to MRU. *)
val iter : ('a -> unit) -> 'a t -> unit

val to_list_lru_first : 'a t -> 'a list
