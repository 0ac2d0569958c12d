(** Reading a dataset or scenario file whole. *)

val read : string -> string
(** The file's contents.  The channel is closed on every path.
    @raise Sys_error naming the path when it cannot be read, including
    when it is a directory. *)
