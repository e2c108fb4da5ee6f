(* Host-speed calibration.

   The benchmark shares its host. The vCPU's speed swings by up to 2x
   over seconds to minutes as neighbours load the machine, and the
   hypervisor sometimes takes the vCPU away outright (steal). A run
   therefore times a fixed kernel between its measured chunks — never
   while a cast is in flight — and scales each chunk's times to a host
   on which the kernel takes [nominal_ns]; it also removes the chunk's
   share of steal. Counts (words, bytes) are never scaled.

   The kernel is frozen benchmark code: a change to the system under
   test cannot move it. It does what the stack spends its time on —
   allocating short-lived OCaml blocks (some promoted to the major
   heap) and sending UDP datagrams over 127.0.0.1, in about the
   stack's user/system proportion — so contention slows it the way it
   slows the stack: over runs whose raw CPU per cast varied 1.8x, the
   kernel-scaled values stayed within 3% of their median. Because it
   allocates, a change to the program's GC parameters would move it
   too; judge such a change on the raw figures every run prints. *)

(* Kernel time on this benchmark's reference host (a 2-vCPU VM) when
   it is not contended. *)
let nominal_ns = 400_000.0

type t = {
  tx : Unix.file_descr;
  rx : Unix.file_descr;
  dest : Unix.sockaddr;
  buf : Bytes.t;
  table : (int, Bytes.t) Hashtbl.t;
  mutable sink : int list;
}

let create () =
  let sock () =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    s
  in
  let tx = sock () and rx = sock () in
  { tx; rx; dest = Unix.getsockname rx; buf = Bytes.make 2048 'h'; table = Hashtbl.create 256;
    sink = [] }

let close t =
  Unix.close t.tx;
  Unix.close t.rx

let round t =
  for i = 1 to 20_000 do
    t.sink <- [ i; i + 1; i + 2 ];
    if i land 7 = 0 then Hashtbl.replace t.table (i land 255) (Bytes.create 40)
  done;
  for _ = 1 to 40 do
    ignore (Unix.sendto t.tx t.buf 0 64 [] t.dest);
    ignore (Unix.recv t.rx t.buf 0 (Bytes.length t.buf) [])
  done

(* Nanoseconds for one kernel run. *)
let measure t =
  let t0 = Tracer.now_ns () in
  round t;
  float_of_int (Tracer.now_ns () - t0)

(* Seconds the hypervisor has stolen from this machine's vCPUs since
   boot (the [steal] column of /proc/stat, in USER_HZ = 100 ticks);
   0 where the file is unreadable. *)
let steal_s () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields when List.length fields >= 8 ->
      (match int_of_string_opt (List.nth fields 7) with
       | Some ticks -> float_of_int ticks /. 100.0
       | None -> 0.0)
    | _ -> 0.0)
  | None -> 0.0
  | exception Sys_error _ -> 0.0
