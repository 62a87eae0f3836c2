exception Interrupted

let interrupt_flag = Atomic.make false
let request_interrupt () = Atomic.set interrupt_flag true
let interrupted () = Atomic.get interrupt_flag
let clear_interrupt () = Atomic.set interrupt_flag false

let install_signal_handler () =
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         request_interrupt ();
         (* a second Ctrl-C kills the process the normal way *)
         Sys.set_signal Sys.sigint Sys.Signal_default))

let guard () = if interrupted () then raise Interrupted
