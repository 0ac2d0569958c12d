(* A directory opens as a channel but has no length, and the error
   [in_channel_length] raises then names neither the path nor the cause,
   so a directory is refused before it is opened. *)
let read path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": Is a directory"));
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
