(* Every metric the benchmark reports, by name, with its unit. The
   end-to-end ones come from untraced runs and carry their direction;
   BENCHMARK.json lists the same names with their bounds (a test keeps
   the two in step). The per-layer ones come from the traced run. *)

type better = Lower | Higher

let end_to_end =
  [ ("casts_per_s", "1/s", Higher);
    ("latency_p50_us", "us", Lower);
    ("latency_p99_us", "us", Lower);
    ("setup_s", "s", Lower);
    ("cpu_us_per_cast", "us", Lower);
    ("minor_words_per_cast", "words", Lower);
    ("wire_bytes_per_cast", "bytes", Lower) ]

(* The end-to-end metrics scaled to the nominal host (see calibrate.ml).
   Runs report them unscaled too; the full report keeps those under
   "raw" and the comparator judges them beside the scaled ones. *)
let scaled = [ "casts_per_s"; "latency_p50_us"; "latency_p99_us"; "cpu_us_per_cast" ]

(* Reported by the full run next to the end-to-end metrics, but not in
   BENCHMARK.json: it is 0 on every healthy run, and every run already
   reports its failures in the result line's [failed]. *)
let failed_cast_ratio = ("failed_cast_ratio", "ratio")

let layer_names = [ "TOTAL"; "MBRSHIP"; "FRAG"; "NAK"; "COM" ]

let per_layer =
  [ ("latency.p999_us", "us");
    ("core.cast_call_ns", "ns");
    ("hcpi.down_dispatch_ns", "ns");
    ("hcpi.up_dispatch_ns", "ns");
    ("hcpi.crossings_per_cast", "count") ]
  @ List.concat_map
      (fun l ->
         [ ("layers." ^ l ^ ".down_ns", "ns");
           ("layers." ^ l ^ ".up_ns", "ns");
           ("layers." ^ l ^ ".minor_words", "words") ])
      layer_names
  @ [ ("layers.NAK.retransmits_per_kcast", "count");
      ("transport.send_ns", "ns");
      ("transport.recv_ns", "ns");
      ("transport.datagrams_per_cast", "count");
      ("transport.syscalls_per_cast", "count");
      ("transport.bad_frames", "count");
      ("driver.step_other_ns", "ns");
      ("sim.events_per_cast", "count");
      ("process.cpu_util", "ratio");
      ("gc.minor_collections_per_kcast", "count");
      ("gc.major_collections_per_kcast", "count");
      ("shard.post_ns", "ns");
      ("shard.hop_us_p50", "us");
      ("shard.hop_us_p99", "us");
      ("shard.posted_per_cast", "count");
      ("shard.mailbox_hwm", "count");
      ("trace.unattributed_share", "ratio");
      ("trace.overhead_pct", "%");
      ("ablation.fused.cpu_us_per_cast", "us");
      ("ablation.fused.minor_words_per_cast", "words");
      ("ablation.fused.send_fused_share", "ratio");
      ("ablation.batched.cpu_us_per_cast", "us");
      ("ablation.batched.syscalls_per_cast", "count");
      ("host.speed", "ratio") ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, u, _) -> Some u
  | None ->
    if name = fst failed_cast_ratio then Some (snd failed_cast_ratio)
    else List.assoc_opt name per_layer
