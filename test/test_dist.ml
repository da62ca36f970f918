(* lib/dist: label-preserving remote gates across independent kernels.

   Covers the wire/seal/name-translation units, the conformance of
   the remote admission check against the executable model, a 2-node
   remote gate end-to-end (taint acquired remotely arrives translated
   on the caller), refusal accounting, the scale-out web cluster
   (packet-capture secrecy, wrong-password and cross-user denial),
   failover under a link flap, bit-reproducibility of a whole
   cluster run, and a wave cost that does not grow with past waves. *)

module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Types = Histar_core.Types
module Metrics = Histar_metrics.Metrics
module Par = Histar_par.Par
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Netd = Histar_net.Netd
module Stack = Histar_net.Stack
module Sim_host = Histar_net.Sim_host
module Sim_clock = Histar_util.Sim_clock
module Seal = Histar_crypto.Seal
module Wire = Histar_dist.Wire
module Names = Histar_dist.Names
module Proto = Histar_dist.Proto
module Distd = Histar_dist.Distd
module Cluster = Histar_dist.Cluster
module Check = Histar_check.Check
module Gen = Histar_check.Gen
module Webcluster = Histar_apps.Webcluster
module Faults = Histar_faults.Faults

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let l1 = Label.make Level.L1
let l2 = Label.make Level.L2
let l3 = Label.make Level.L3

(* --- seal --- *)

let test_seal_roundtrip () =
  let s = Seal.create ~key:0xfeedL in
  let msg = "attack at dawn \x00\xff binary ok" in
  let sealed = Seal.seal s ~nonce:42L msg in
  Alcotest.(check bool) "changed" true (sealed <> msg);
  Alcotest.(check string) "roundtrip" msg (Seal.unseal s ~nonce:42L sealed);
  Alcotest.(check bool)
    "nonce matters" true
    (Seal.unseal s ~nonce:43L sealed <> msg)

let test_seal_tagged () =
  let s = Seal.create ~key:0xbeefL in
  let sealed = Seal.seal_tagged s ~nonce:7L "payload" in
  (match Seal.unseal_tagged s ~nonce:7L sealed with
  | Some p -> Alcotest.(check string) "tagged roundtrip" "payload" p
  | None -> Alcotest.fail "tag should verify");
  let tampered =
    let b = Bytes.of_string sealed in
    Bytes.set b (Bytes.length b - 1)
      (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
    Bytes.to_string b
  in
  Alcotest.(check bool)
    "tamper detected" true
    (Seal.unseal_tagged s ~nonce:7L tampered = None);
  Alcotest.(check bool)
    "wrong key detected" true
    (Seal.unseal_tagged (Seal.create ~key:0xdeadL) ~nonce:7L sealed = None)

(* --- wire --- *)

let wl entries default = { Wire.wl_entries = entries; wl_default = default }

let test_wire_roundtrip () =
  let call =
    Wire.Call
      {
        c_service = "auth";
        c_from = 3;
        c_label = wl [ (0x1122334455667788L, 0); (9L, 4) ] 2;
        c_clear = wl [] 4;
        c_args = "user0 pw";
      }
  in
  let reply =
    Wire.Reply
      {
        r_status = Wire.S_ok;
        r_label = wl [ (5L, 3) ] 2;
        r_grants = [ 0x42L; 0x43L ];
        r_payload = "page bytes";
      }
  in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        "msg roundtrip" true
        (Wire.decode_msg (Wire.encode_msg m) = m))
    [ call; reply ]

let test_wire_deframe () =
  let s = Seal.create ~key:1L in
  let m =
    Wire.Reply
      { r_status = Wire.S_error; r_label = wl [] 2; r_grants = [];
        r_payload = "x" }
  in
  let f1 = Wire.seal_msg s ~nonce:10L m in
  let f2 = Wire.seal_msg s ~nonce:11L m in
  (* byte-at-a-time delivery of two back-to-back frames *)
  let r = Wire.reader () and got = ref [] in
  String.iter
    (fun c ->
      Wire.feed r (String.make 1 c);
      match Wire.deframe r with
      | Wire.Frame (nonce, body) ->
          got := (nonce, Wire.unseal_msg s ~nonce body) :: !got
      | Wire.Partial -> ()
      | Wire.Bad_length n -> Alcotest.failf "bad length %d" n)
    (f1 ^ f2);
  match List.rev !got with
  | [ (10L, Some m1); (11L, Some m2) ] ->
      Alcotest.(check bool) "both decoded" true (m1 = m && m2 = m)
  | _ -> Alcotest.fail "expected exactly two frames"

(* [deframe] is total: on any stream — the frames [frame_raw] built,
   cut short, with one byte changed, or with one length field raised
   past [Wire.max_frame_len] — it never raises, and it gives back
   exactly the whole frames that precede the first damaged one. An
   oversized length is refused as soon as its 4 bytes are in, before
   the frame it claims could arrive. *)
type damage =
  | Intact
  | Byte of int * int * char  (** frame, offset, new byte *)
  | Oversize of int * int  (** frame, new length field *)

let gen_stream =
  let open Gen in
  let* frames = list (pair int64 (resize 24 string)) in
  let* cut = nat in
  (* a byte of frame [k] at [off], biased to the 12-byte header and to
     the small values that make a length field a runt *)
  let g_byte =
    map
      (fun (k, off, c) -> Byte (k, off, c))
      (triple nat
         (frequency [ (2, int_range 0 11); (1, nat) ])
         (frequency [ (1, byte); (1, map Char.chr (int_range 0 8)) ]))
  in
  let g_oversize =
    map2
      (fun k n -> Oversize (k, n))
      nat
      (frequency
         [ (1, return (Wire.max_frame_len + 1)); (1, int_range 0 0xFFFF_FFFF) ])
  in
  let* mutation = oneof [ return Intact; g_byte; g_oversize ] in
  let* chunk = frequency [ (3, int_range 1 16); (1, int_range 1 1024) ] in
  return (frames, cut, mutation, chunk)

let print_stream (frames, cut, mutation, chunk) =
  Printf.sprintf "%d frames, cut %d, chunks of %d, %s" (List.length frames)
    cut chunk
    (match mutation with
    | Intact -> "intact"
    | Byte (k, off, c) -> Printf.sprintf "frame %d byte %d := %C" k off c
    | Oversize (k, n) -> Printf.sprintf "frame %d length := %d" k n)

let prop_deframe_total (frames, cut, mutation, chunk) =
  let encoded =
    List.map (fun (nonce, body) -> Wire.frame_raw ~nonce body) frames
  in
  let stream = Bytes.of_string (String.concat "" encoded) in
  let len = Bytes.length stream in
  let start_of k =
    List.fold_left ( + ) 0
      (List.filteri (fun i _ -> i < k mod List.length encoded)
         (List.map String.length encoded))
  in
  (* the first byte of the stream that no longer reads as built *)
  let damage = ref len and mutated = ref false and oversized = ref None in
  (match mutation with
  | Byte (k, off, c) when len > 0 ->
      let i = (start_of k + off) mod len in
      if Bytes.get stream i <> c then begin
        Bytes.set stream i c;
        damage := i;
        mutated := true
      end
  | Oversize (k, n) when len > 0 && n > Wire.max_frame_len ->
      let i = start_of k in
      Bytes.set_int32_le stream i (Int32.of_int n);
      damage := i;
      oversized := Some (i, n)
  | Intact | Byte _ | Oversize _ -> ());
  let kept = if cut = 0 then len else cut mod (len + 1) in
  damage := min !damage kept;
  (* fed [chunk] bytes at a time, each taking off what is whole, as a
     conn thread reads a stream *)
  let r = Wire.reader () in
  let rec peel acc pos =
    match Wire.deframe r with
    | Wire.Frame (nonce, body) -> peel ((nonce, body) :: acc) pos
    | Wire.Bad_length n -> (List.rev acc, Some n)
    | Wire.Partial when pos >= kept -> (List.rev acc, None)
    | Wire.Partial ->
        let n = min chunk (kept - pos) in
        Wire.feed r (Bytes.sub_string stream pos n);
        peel acc (pos + n)
  in
  let got, refused = peel [] 0 in
  (* the frames that end before the damage come back unchanged *)
  let rec intact pos = function
    | (f, e) :: rest when pos + String.length e <= !damage ->
        f :: intact (pos + String.length e) rest
    | _ -> []
  in
  let expected = intact 0 (List.combine frames encoded) in
  match !oversized with
  | Some (i, n) when i + 4 <= kept ->
      Check.ensure ~msg:"frames before the oversized length" (got = expected);
      Check.ensure ~msg:"the oversized length is refused" (refused = Some n)
  | Some _ | None ->
      if !mutated then
        Check.ensure ~msg:"frames before the damage"
          (List.filteri (fun i _ -> i < List.length expected) got = expected)
      else
        Check.ensure ~msg:"an unmutated stream deframes exactly" (got = expected)

(* --- names --- *)

let test_names () =
  let directory = Names.Directory.create () in
  let na = Names.create ~node_id:1 ~key:99L ~directory in
  let nb = Names.create ~node_id:2 ~key:99L ~directory in
  let w1 = Names.mint na in
  let w2 = Names.mint na in
  let w3 = Names.mint nb in
  Alcotest.(check bool) "wire names distinct" true (w1 <> w2 && w1 <> w3);
  Alcotest.(check int) "origin a" 1 (Names.origin nb w1);
  Alcotest.(check int) "origin b" 2 (Names.origin na w3);
  Alcotest.(check bool)
    "origin trusted implicitly" true
    (Names.trusted_for nb ~wire:w3 ~node:2);
  Alcotest.(check bool)
    "stranger untrusted" false
    (Names.trusted_for nb ~wire:w1 ~node:3);
  Names.Directory.add_trust directory ~wire:w1 ~node:3;
  Alcotest.(check bool)
    "directory trust honored" true
    (Names.trusted_for nb ~wire:w1 ~node:3)

(* --- proto --- *)

let test_proto_translate () =
  let directory = Names.Directory.create () in
  let n = Names.create ~node_id:0 ~key:5L ~directory in
  let c = Category.of_int64 77L in
  let lbl = Label.of_list [ (c, Level.L2) ] Level.L1 in
  (match Proto.to_wire n lbl with
  | Error m ->
      Alcotest.(check bool)
        "unexported refused" true
        (contains_sub m "not exported")
  | Ok _ -> Alcotest.fail "unexported category must not serialize");
  let e = Names.record n ~wire:(Names.mint n) ~cat:c () in
  (match Proto.to_wire n lbl with
  | Ok w ->
      Alcotest.(check bool)
        "exported serializes" true
        (w.Wire.wl_entries = [ (e.Names.e_wire, Level.to_rank Level.L2) ])
  | Error m -> Alcotest.fail m);
  (* untrusted ⋆ clamps to 3, trusted ⋆ survives, J clamps *)
  let resolve _ = c in
  let star = Level.to_rank Level.Star and j = Level.to_rank Level.J in
  let back trusted rank =
    Label.get
      (Proto.of_wire ~resolve ~trusted:(fun _ -> trusted)
         (wl [ (e.Names.e_wire, rank) ] (Level.to_rank Level.L1)))
      c
  in
  Alcotest.(check bool) "untrusted star -> 3" true (back false star = Level.L3);
  Alcotest.(check bool) "trusted star -> star" true (back true star = Level.Star);
  Alcotest.(check bool) "wire J -> 3" true (back true j = Level.L3);
  Alcotest.(check bool) "garbage rank -> 3" true (back true 250 = Level.L3)

(* --- admission conformance against the executable model --- *)

let test_admit_matches_model () =
  let module Model = Histar_model.Model in
  let module Mlabel = Histar_model.Mlabel in
  let cats = [ 11L; 12L ] in
  let levels = [ 0; 2; 3; 4 ] (* ⋆, L1, L2, L3 ranks *) in
  let labels =
    (* every single-entry label over two categories, plus plain defaults *)
    List.concat_map
      (fun d ->
        wl [] d
        :: List.concat_map
             (fun c -> List.map (fun r -> wl [ (c, r) ] d) levels)
             cats)
      [ 2; 4 ]
  in
  let to_label w =
    List.fold_left
      (fun acc (c, r) -> Label.set acc (Category.of_int64 c) (Level.of_rank r))
      (Label.make (Level.of_rank w.Wire.wl_default))
      w.Wire.wl_entries
  in
  let to_mlabel w =
    Mlabel.of_entries
      (List.map (fun (c, r) -> ((Category.of_int64 c :> int), r)) w.Wire.wl_entries)
      w.Wire.wl_default
  in
  let lv = wl [] 4 in
  let checked = ref 0 in
  List.iter
    (fun lt ->
      List.iter
        (fun lg ->
          List.iter
            (fun rl ->
              let ct = wl [] 4 and gclear = wl [] 4 and rc = wl [] 4 in
              let got =
                Proto.admit ~lt:(to_label lt) ~ct:(to_label ct)
                  ~lg:(to_label lg) ~gclear:(to_label gclear)
                  ~rl:(to_label rl) ~rc:(to_label rc) ~lv:(to_label lv)
              in
              let want =
                Model.check_gate_invoke ~lt:(to_mlabel lt) ~ct:(to_mlabel ct)
                  ~lg:(to_mlabel lg) ~gclear:(to_mlabel gclear)
                  ~rl:(to_mlabel rl) ~rc:(to_mlabel rc) ~lv:(to_mlabel lv)
              in
              incr checked;
              match (got, want) with
              | Ok (), Ok () -> ()
              | Error m, Error (Model.E_label, m') ->
                  Alcotest.(check string) "same refusal" m' m
              | Error _, Error _ ->
                  Alcotest.fail "model refused with a non-label error"
              | Ok (), Error (_, m) ->
                  Alcotest.fail ("dist admits what model refuses: " ^ m)
              | Error m, Ok () ->
                  Alcotest.fail ("dist refuses what model admits: " ^ m))
            labels)
        labels)
    labels;
  Alcotest.(check bool) "grid nontrivial" true (!checked > 5_000)

(* --- two-node fixture --- *)

type node = { k : Kernel.t; dist : Distd.t; netd : Netd.t; hub : Hub.t }

let mk_nodes ?(seed = 11L) n =
  let cluster = Cluster.create () in
  let directory = Names.Directory.create () in
  let key = Int64.logxor 0xd157L seed in
  let back = Hub.create ~clock:(Sim_clock.create ()) () in
  let ip i = Printf.sprintf "10.1.0.%d" (i + 1) in
  let peers i = Addr.v (ip i) 7000 in
  let mk i =
    let clock = Sim_clock.create () in
    let k =
      Kernel.create ~seed:(Int64.add seed (Int64.of_int (17 * (i + 1)))) ~clock ()
    in
    Cluster.add_kernel cluster k;
    let root = Kernel.root k in
    let netd =
      Netd.start k ~hub:back ~container:root ~ip:(Addr.ip_of_string (ip i))
        ~mac:(Printf.sprintf "n%d" i) ()
    in
    let names = Names.create ~node_id:i ~key ~directory in
    let dist =
      Distd.start k ~netd ~names ~key ~container:root ~port:7000 ~peers ()
    in
    { k; dist; netd; hub = back }
  in
  (cluster, Array.init n mk)

let drive_until cluster f =
  Alcotest.(check bool) "cluster made progress" true
    (Cluster.drive cluster ~until:f ())

(* --- remote gate end-to-end --- *)

let test_remote_gate_echo () =
  let cluster, nodes = mk_nodes 2 in
  Distd.register nodes.(1).dist ~service:"echo" ~label:l1 ~clearance:l3
    (fun s -> ("echo:" ^ s, []));
  Cluster.settle cluster;
  let result = ref None in
  ignore
    (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l3 ~name:"caller" (fun () ->
         result := Some (Distd.call nodes.(0).dist ~node:1 ~service:"echo" "hi")));
  drive_until cluster (fun () -> !result <> None);
  match !result with
  | Some (Ok ("echo:hi", [])) -> ()
  | Some (Ok (p, _)) -> Alcotest.fail ("unexpected payload: " ^ p)
  | Some (Error (Distd.Refused m)) -> Alcotest.fail ("refused: " ^ m)
  | Some (Error (Distd.Remote m)) -> Alcotest.fail ("remote: " ^ m)
  | Some (Error (Distd.Transport m)) -> Alcotest.fail ("transport: " ^ m)
  | None -> Alcotest.fail "no result"

let test_remote_taint_translated () =
  (* The service taints its reply with a category of its own node;
     the caller receives the taint translated into a local twin and
     ends up labeled with it — taint follows data across kernels. *)
  let cluster, nodes = mk_nodes 2 in
  let server_wire = ref None in
  ignore
    (Kernel.spawn nodes.(1).k ~label:l1 ~clearance:l3 ~name:"svc-init"
       (fun () ->
         let c = Sys.cat_create () in
         server_wire := Some (Distd.export_owned nodes.(1).dist c);
         Distd.register nodes.(1).dist ~service:"secret" ~label:l1
           ~clearance:l3 (fun _ ->
             Sys.self_set_label (Label.set (Sys.self_label ()) c Level.L2);
             ("classified", []))));
  Cluster.settle cluster;
  let result = ref None and caller_label = ref None in
  ignore
    (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l3 ~name:"caller" (fun () ->
         let r = Distd.call nodes.(0).dist ~node:1 ~service:"secret" "" in
         caller_label := Some (Sys.self_label ());
         result := Some r));
  drive_until cluster (fun () -> !result <> None);
  (match !result with
  | Some (Ok ("classified", _)) -> ()
  | _ -> Alcotest.fail "call should succeed");
  let w = Option.get !server_wire in
  (* the caller's local twin for the server's wire name is now L2 *)
  match Names.find_wire (Distd.names nodes.(0).dist) w with
  | None -> Alcotest.fail "caller never imported the taint category"
  | Some e ->
      Alcotest.(check bool)
        "caller tainted at translated category" true
        (Label.get (Option.get !caller_label) e.Names.e_cat = Level.L2)

let test_remote_grant_claimed () =
  (* The service grants ownership of its category through the reply;
     the caller claims it and can then assert ⋆ of the local twin. *)
  let cluster, nodes = mk_nodes 2 in
  ignore
    (Kernel.spawn nodes.(1).k ~label:l1 ~clearance:l3 ~name:"svc-init"
       (fun () ->
         let c = Sys.cat_create () in
         ignore (Distd.export_owned nodes.(1).dist c : int64);
         Distd.register nodes.(1).dist ~service:"login"
           ~label:(Label.of_list [ (c, Level.Star) ] Level.L1)
           ~clearance:l3
           (fun _ -> ("granted", [ c ]))));
  Cluster.settle cluster;
  let owned = ref None in
  ignore
    (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l3 ~name:"caller" (fun () ->
         match Distd.call nodes.(0).dist ~node:1 ~service:"login" "" with
         | Ok (_, grants) ->
             let cats = Distd.claim_grants nodes.(0).dist grants in
             owned :=
               Some
                 (List.for_all (Label.owns (Sys.self_label ())) cats
                 && cats <> [])
         | Error _ -> owned := Some false));
  drive_until cluster (fun () -> !owned <> None);
  Alcotest.(check bool) "grant claimed across nodes" true (!owned = Some true)

let test_remote_refusals () =
  (* Server-side refusal: a service whose gate label owns a category
     replies at a {c⋆} label; for a caller whose capacity could never
     cover c (clearance {2}), the reply is dropped before
     serialization and net.dist_refused counts it. (Plain runtime
     taint can never exceed the capacity — the proxy's clearance is
     the caller's capacity, so the kernel stops it first; the ⋆ path
     is the one only the server-side check can catch.) Admission
     refusal: a service whose gate label carries taint is refused
     with exactly the model's refusal string. *)
  let cluster, nodes = mk_nodes 2 in
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  ignore
    (Kernel.spawn nodes.(1).k ~label:l1 ~clearance:l3 ~name:"svc-init"
       (fun () ->
         let c = Sys.cat_create () in
         ignore (Distd.export_owned nodes.(1).dist c : int64);
         Distd.register nodes.(1).dist ~service:"too-hot"
           ~label:(Label.of_list [ (c, Level.Star) ] Level.L1)
           ~clearance:l3
           (fun _ -> ("radioactive", []));
         let d = Sys.cat_create () in
         ignore (Distd.export_owned nodes.(1).dist d : int64);
         Distd.register nodes.(1).dist ~service:"tainted-gate"
           ~label:(Label.of_list [ (d, Level.L2) ] Level.L1)
           ~clearance:l3
           (fun _ -> ("unreachable", []))));
  Cluster.settle cluster;
  let r1 = ref None and r2 = ref None in
  ignore
    (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l2 ~name:"low-caller"
       (fun () -> r1 := Some (Distd.call nodes.(0).dist ~node:1 ~service:"too-hot" "")));
  let before = Metrics.counter_value "net.dist_refused" in
  drive_until cluster (fun () -> !r1 <> None);
  (match !r1 with
  | Some (Error (Distd.Refused m)) ->
      Alcotest.(check bool)
        "capacity refusal names the reply" true
        (contains_sub m "capacity")
  | Some (Ok (p, _)) -> Alcotest.fail ("refused data leaked: " ^ p)
  | _ -> Alcotest.fail "expected Refused");
  Alcotest.(check bool)
    "refusal counted" true
    (Metrics.counter_value "net.dist_refused" > before);
  ignore
    (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l3 ~name:"caller2"
       (fun () ->
         r2 := Some (Distd.call nodes.(0).dist ~node:1 ~service:"tainted-gate" "")));
  drive_until cluster (fun () -> !r2 <> None);
  match !r2 with
  | Some (Error (Distd.Refused m)) ->
      Alcotest.(check string)
        "admission refusal matches the model's string" "gate: floor not <= L_R"
        m
  | Some (Ok _) -> Alcotest.fail "tainted gate must refuse a clean caller"
  | _ -> Alcotest.fail "expected admission refusal"

(* --- web cluster end-to-end --- *)

let test_cluster_acceptance () =
  (* Drive the full cluster with taps on both hubs: every user reads
     exactly their own record, wrong passwords and cross-user reads
     get no data, and no hub frame ever carries a record in
     plaintext (the reply is sealed under the session key; the
     backbone carries only sealed dist frames). *)
  let wc = Webcluster.build ~app_nodes:2 ~user_count:3 () in
  let front_cap = Buffer.create 4096 and back_cap = Buffer.create 4096 in
  Hub.set_tap (Webcluster.front_hub wc)
    (Some (fun frame -> Buffer.add_string front_cap frame));
  Hub.set_tap (Webcluster.back_hub wc)
    (Some (fun frame -> Buffer.add_string back_cap frame));
  let users = Webcluster.users wc in
  let u0, p0 = users.(0) and u1, p1 = users.(1) and u2, p2 = users.(2) in
  let requests =
    [|
      (u0, p0, u0);
      (u1, p1, u1);
      (u2, p2, u2);
      (u0, "wrong-password", u0);
      (u0, p0, u1);
      (* authenticated as u0 but asking for u1's page *)
      (u1, p1, u1);
    |]
  in
  let finished, outcomes = Webcluster.run_load wc requests in
  Alcotest.(check bool) "all requests completed" true finished;
  let reply i = outcomes.(i).Webcluster.o_reply in
  let secret u = Webcluster.secret_of wc u in
  List.iter
    (fun (i, u) ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d serves %s's own record" i u)
        true
        (contains_sub (reply i) (secret u)))
    [ (0, u0); (1, u1); (2, u2); (5, u1) ];
  Alcotest.(check string) "wrong password refused" "ERR auth" (reply 3);
  Alcotest.(check bool)
    "cross-user read denied at the db" true
    (contains_sub (reply 4) "DENIED");
  Array.iter
    (fun (u, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "cross-user reply leaks no record of %s" u)
        false
        (contains_sub (reply 4) (secret u));
      Alcotest.(check bool)
        (Printf.sprintf "wrong-password reply leaks no record of %s" u)
        false
        (contains_sub (reply 3) (secret u)))
    users;
  (* The taps saw real traffic (positive control: the plaintext
     request line is visible on the front hub)… *)
  Alcotest.(check bool) "front tap captured frames" true
    (Buffer.length front_cap > 0);
  Alcotest.(check bool) "back tap captured frames" true
    (Buffer.length back_cap > 0);
  Alcotest.(check bool)
    "front capture sees the request line" true
    (contains_sub (Buffer.contents front_cap) (u0 ^ " "));
  (* …yet no record plaintext ever crossed either wire. *)
  Array.iter
    (fun (u, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "no plaintext record of %s on the front hub" u)
        false
        (contains_sub (Buffer.contents front_cap) (secret u));
      Alcotest.(check bool)
        (Printf.sprintf "no plaintext record of %s on the backbone" u)
        false
        (contains_sub (Buffer.contents back_cap) (secret u)))
    users;
  Hub.set_tap (Webcluster.front_hub wc) None;
  Hub.set_tap (Webcluster.back_hub wc) None

let test_cluster_failover () =
  (* Kill app node 1's backbone link mid-run via a lib/faults flap
     plan (down for the whole flap period = down for good until we
     heal it): the balancer detects the loss by RPC give-up, takes
     the node out of rotation, serves everything on node 0, and after
     the heal + cooldown the node re-enters rotation. An outage must
     never surface as a label refusal. *)
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  let wc =
    Webcluster.build ~app_nodes:2 ~user_count:2 ~work_us:5_000 ~cooldown_ms:20
      ()
  in
  let users = Webcluster.users wc in
  let mk_batch n =
    Array.init n (fun i ->
        let u, p = users.(i mod Array.length users) in
        (u, p, u))
  in
  let check_batch tag (finished, outcomes) =
    Alcotest.(check bool) (tag ^ " completed") true finished;
    Array.iter
      (fun o ->
        Alcotest.(check bool)
          (tag ^ " reply has the record: " ^ o.Webcluster.o_reply)
          true
          (contains_sub o.Webcluster.o_reply
             (Webcluster.secret_of wc o.Webcluster.o_user)))
      outcomes
  in
  let refused_before = Metrics.counter_value "net.dist_refused" in
  (* Healthy baseline: both nodes in rotation. *)
  check_batch "baseline" (Webcluster.run_load wc (mk_batch 20));
  Alcotest.(check bool) "baseline used both nodes" true
    ((Webcluster.served wc).(0) > 0 && (Webcluster.served wc).(1) > 0);
  (* Kill node 1's link: flap_down = flap_period means the link is in
     its down window at every instant. *)
  let dead =
    Option.get
      (Faults.Net_faults.create
         (Faults.Schedule.mk ~seed:3L
            ~net:
              {
                Faults.Schedule.loss_rate = 0.0;
                corrupt_rate = 0.0;
                duplicate_rate = 0.0;
                reorder_rate = 0.0;
                reorder_depth = 0;
                jitter_us = 0;
                flap_period_ms = 1000;
                flap_down_ms = 1000;
              }
            ()))
  in
  let bclock = Webcluster.balancer_clock wc in
  Hub.set_link_faults (Webcluster.back_hub wc)
    ~mac:(Webcluster.app_mac wc 1)
    (Some (dead, fun () -> Sim_clock.now bclock));
  let served1_before_outage = (Webcluster.served wc).(1) in
  let lost_before = Metrics.counter_value "net.frames_lost" in
  check_batch "outage batch" (Webcluster.run_load wc (mk_batch 30));
  Alcotest.(check bool) "outage caused failovers" true
    (Webcluster.failovers wc > 0);
  Alcotest.(check bool) "the downed link dropped frames" true
    (Metrics.counter_value "net.frames_lost" > lost_before);
  Alcotest.(check int) "dead node served nothing during the outage"
    served1_before_outage
    (Webcluster.served wc).(1);
  (* Heal the link; after the cooldown the balancer's probe succeeds
     and node 1 is back in rotation. *)
  Hub.set_link_faults (Webcluster.back_hub wc)
    ~mac:(Webcluster.app_mac wc 1)
    None;
  check_batch "healed batch" (Webcluster.run_load wc (mk_batch 20));
  Alcotest.(check bool) "healed node re-entered rotation" true
    ((Webcluster.served wc).(1) > served1_before_outage);
  Alcotest.(check int) "an outage is never a label refusal" refused_before
    (Metrics.counter_value "net.dist_refused")

let test_cluster_scaling () =
  (* Throughput scales with app nodes (makespan strictly shrinks
     1 → 2 → 4 under a fixed seed and load), and a whole cluster run
     is bit-reproducible: two fresh builds with the same seed produce
     identical outcomes, identical makespans and identical metrics. *)
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  let load wc =
    let users = Webcluster.users wc in
    Array.init 24 (fun i ->
        let u, p = users.(i mod Array.length users) in
        (u, p, u))
  in
  let run app_nodes =
    Metrics.reset ();
    let wc = Webcluster.build ~app_nodes ~user_count:2 ~work_us:5_000 () in
    let snap = Webcluster.clock_snapshot wc in
    let finished, outcomes = Webcluster.run_load wc ~concurrency:8 (load wc) in
    Alcotest.(check bool)
      (Printf.sprintf "%d-node run completed" app_nodes)
      true finished;
    Array.iter
      (fun o ->
        Alcotest.(check bool)
          ("reply has the record: " ^ o.Webcluster.o_reply)
          true
          (contains_sub o.Webcluster.o_reply
             (Webcluster.secret_of wc o.Webcluster.o_user)))
      outcomes;
    let makespan = Webcluster.elapsed_since wc snap in
    let digest =
      String.concat "|"
        (Array.to_list
           (Array.map (fun o -> o.Webcluster.o_user ^ ":" ^ o.Webcluster.o_reply)
              outcomes))
      ^ Printf.sprintf "|served=%s|metrics=%s"
          (String.concat ","
             (Array.to_list (Array.map string_of_int (Webcluster.served wc))))
          (String.concat ";"
             (List.filter_map
                (fun (k, v) ->
                  (* zero-valued entries are registry residue from
                     earlier runs in this process (reset zeroes but
                     never unregisters), not part of this run *)
                  if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
                (Metrics.snapshot ())))
    in
    (makespan, digest)
  in
  let m1, _ = run 1 in
  let m2, d2 = run 2 in
  let m4, _ = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "2 nodes beat 1 (%Ldns < %Ldns)" m2 m1)
    true (Int64.compare m2 m1 < 0);
  Alcotest.(check bool)
    (Printf.sprintf "4 nodes beat 2 (%Ldns < %Ldns)" m4 m2)
    true (Int64.compare m4 m2 < 0);
  let m2', d2' = run 2 in
  Alcotest.(check bool) "same seed, same makespan" true (Int64.equal m2 m2');
  Alcotest.(check string) "same seed, same run — bit for bit" d2 d2';
  (* The cluster steps its nodes inline and never consults the lib/par
     pool, so configuring 2 or 8 pool domains must leave outcomes,
     makespan and the metric dump byte-identical. *)
  let saved = Par.domains () in
  Fun.protect
    ~finally:(fun () -> Par.set_domains saved)
    (fun () ->
      List.iter
        (fun dn ->
          Par.set_domains dn;
          let m2d, d2d = run 2 in
          Alcotest.(check bool)
            (Printf.sprintf "same makespan at %d domains" dn)
            true (Int64.equal m2 m2d);
          Alcotest.(check string)
            (Printf.sprintf "bit-identical run at %d domains" dn)
            d2 d2d)
        [ 2; 8 ])

(* Session-token TTL: the sealed front-end token elides the auth
   round-trip only inside its expiry window. Crossing the boundary at
   virtual time must silently fall back to the slow path (a real auth
   against the shard, which re-caches a fresh token) — the reply is
   identical either way; only the webcluster.session_hits counter
   tells the paths apart. *)
let test_session_ttl_expiry () =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let wc = Webcluster.build ~app_nodes:2 ~user_count:2 () in
  let u0, p0 = (Webcluster.users wc).(0) in
  let secret = Webcluster.secret_of wc u0 in
  let hits () = Metrics.counter_value "webcluster.session_hits" in
  let drive tag =
    let finished, outcomes = Webcluster.run_load wc [| (u0, p0, u0) |] in
    Alcotest.(check bool) (tag ^ ": completed") true finished;
    Alcotest.(check bool)
      (tag ^ ": serves the record")
      true
      (contains_sub outcomes.(0).Webcluster.o_reply secret)
  in
  let h0 = hits () in
  drive "first request (slow path)";
  Alcotest.(check int) "first auth is a token miss" h0 (hits ());
  drive "second request (inside TTL)";
  Alcotest.(check int) "second request hits the token" (h0 + 1) (hits ());
  (* jump the balancer's virtual clock across the expiry boundary (the
     cluster-wide sync inside run_load raises every other clock to
     match — time never goes backwards) *)
  Sim_clock.advance (Webcluster.balancer_clock wc)
    ((Webcluster.session_ttl_ms + 1) * 1_000_000);
  drive "third request (expired token)";
  Alcotest.(check int)
    "expired token falls back to real auth (no hit)"
    (h0 + 1) (hits ());
  drive "fourth request (re-cached token)";
  Alcotest.(check int) "re-auth cached a fresh token" (h0 + 2) (hits ())

(* Cluster stationarity: the host cost of a wave must not grow with
   the waves before it. The gauge is minor words, a deterministic
   count, not wall time. Per-request kernel objects are
   still never reclaimed, so later waves may cost a little more; an
   idle round that visits every past wave's client hosts, or a
   scheduler that scans every object, costs far more than the 3%. *)
let test_cluster_stationary () =
  let wc = Webcluster.build ~app_nodes:4 ~db_shards:2 ~user_count:4 () in
  let users = Webcluster.users wc in
  let cluster = Webcluster.cluster wc in
  let hosts = Cluster.host_count cluster in
  let words =
    Array.init 50 (fun w ->
        let batch =
          Array.init 8 (fun i ->
              let u, p = users.((w + i) mod Array.length users) in
              (u, p, u))
        in
        let before = Gc.minor_words () in
        let finished, _ = Webcluster.run_load wc ~concurrency:8 batch in
        let used = Gc.minor_words () -. before in
        Alcotest.(check bool)
          (Printf.sprintf "wave %d completed" w)
          true finished;
        Alcotest.(check int) "run_load retires its client hosts" hosts
          (Cluster.host_count cluster);
        used)
  in
  let mean lo = Array.fold_left ( +. ) 0. (Array.sub words lo 5) /. 5. in
  let ratio = mean 45 /. mean 5 in
  Alcotest.(check bool)
    (Printf.sprintf "waves 45-49 allocate %.3fx waves 5-9 (<= 1.03)" ratio)
    true (ratio <= 1.03)

(* A peer that sends a runt frame (length field below 8) or an
   oversized one (above [Wire.max_frame_len]: at 4 GiB less one it
   would have had the conn thread buffer that much) loses its
   connection and is counted as refused; a reply that is a runt frame
   fails [Distd.call] as an unsealable reply would. None of them stops
   the thread that reads it. *)
let test_hostile_runt_frames () =
  let cluster, nodes = mk_nodes 2 in
  Distd.register nodes.(1).dist ~service:"echo" ~label:l1 ~clearance:l3
    (fun s -> ("echo:" ^ s, []));
  (* a third host whose port 7000 answers any call with a runt frame *)
  let hostile = Kernel.create ~seed:99L () in
  Cluster.add_kernel cluster hostile;
  let hroot = Kernel.root hostile in
  let hnetd =
    Netd.start hostile ~hub:nodes.(0).hub ~container:hroot
      ~ip:(Addr.ip_of_string "10.1.0.3") ~mac:"n2" ()
  in
  let runt = "\004\000\000\000junk" in
  ignore
    (Kernel.spawn hostile ~label:l1 ~clearance:l3 ~name:"hostile" (fun () ->
         Netd.Client.listen hnetd ~return_container:hroot 7000;
         let sock = Netd.Client.accept hnetd ~return_container:hroot 7000 in
         ignore (Netd.Client.recv hnetd ~return_container:hroot sock);
         Netd.Client.send hnetd ~return_container:hroot sock runt));
  Cluster.settle cluster;
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  let refused () = Metrics.counter_value "net.dist_refused" in
  (* [frame] to node 1's distd, then what the server answers *)
  let send_frame what frame =
    let before = refused () in
    let eof = ref None in
    ignore
      (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l3 ~name:"hostile-sender"
         (fun () ->
           let rc = Kernel.root nodes.(0).k in
           let sock =
             Netd.Client.connect nodes.(0).netd ~return_container:rc
               (Addr.v "10.1.0.2" 7000)
           in
           Netd.Client.send nodes.(0).netd ~return_container:rc sock frame;
           eof :=
             Some (Netd.Client.recv nodes.(0).netd ~return_container:rc sock)));
    drive_until cluster (fun () -> !eof <> None);
    Alcotest.(check bool) (what ^ ": server closed the connection") true
      (!eof = Some None);
    Alcotest.(check int)
      (what ^ ": one refusal counted")
      (before + 1) (refused ())
  in
  send_frame "runt" runt;
  let oversized len =
    let b = Bytes.make 12 'x' in
    Bytes.set_int32_le b 0 (Int32.of_int len);
    Bytes.to_string b
  in
  send_frame "one past the maximum" (oversized (Wire.max_frame_len + 1));
  send_frame "4 GiB less one" (oversized 0xFFFF_FFFF);
  let call node =
    let r = ref None in
    ignore
      (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l3 ~name:"caller"
         (fun () ->
           r := Some (Distd.call nodes.(0).dist ~node ~service:"echo" "hi")));
    drive_until cluster (fun () -> !r <> None);
    Option.get !r
  in
  (match call 1 with
  | Ok ("echo:hi", []) -> ()
  | Ok _ | Error _ -> Alcotest.fail "the server stopped serving");
  match call 2 with
  | Error (Distd.Refused m) ->
      Alcotest.(check string) "runt reply" "dist: unsealable reply" m
  | Ok _ | Error _ -> Alcotest.fail "a runt reply was not refused"

(* A call or a reply longer than its receiver accepts
   ([Wire.max_frame_len]) is refused by its sender and never sent:
   the receiver would drop the stream, and the caller would take a
   live node for a dead one. The one connection stays in use. *)
let test_oversized_refused () =
  let cluster, nodes = mk_nodes 2 in
  let too_long = String.make (Wire.max_frame_len + 1) 'x' in
  Distd.register nodes.(1).dist ~service:"echo" ~label:l1 ~clearance:l3
    (fun s -> ("echo:" ^ s, []));
  Distd.register nodes.(1).dist ~service:"big" ~label:l1 ~clearance:l3
    (fun _ -> (too_long, []));
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  let reused () = Metrics.counter_value "net.dist_conn_reused" in
  let call service args =
    let r = ref None in
    ignore
      (Kernel.spawn nodes.(0).k ~label:l1 ~clearance:l3 ~name:"caller"
         (fun () ->
           r := Some (Distd.call nodes.(0).dist ~node:1 ~service args)));
    drive_until cluster (fun () -> !r <> None);
    Option.get !r
  in
  (match call "echo" "hi" with
  | Ok ("echo:hi", []) -> ()
  | Ok _ | Error _ -> Alcotest.fail "the first call failed");
  let before = reused () in
  (match call "echo" too_long with
  | Error (Distd.Refused m) ->
      Alcotest.(check string) "long call" "dist: message too large" m
  | Ok _ | Error _ -> Alcotest.fail "a long call was not refused");
  (match call "big" "" with
  | Error (Distd.Remote m) ->
      Alcotest.(check string) "long reply" "dist: reply too large" m
  | Ok _ | Error _ -> Alcotest.fail "a long reply was not an error");
  (match call "echo" "hi" with
  | Ok ("echo:hi", []) -> ()
  | Ok _ | Error _ -> Alcotest.fail "the node stopped serving");
  Alcotest.(check int) "every call reused the first connection" (before + 3)
    (reused ())

(* The same through the web cluster, where the password and the op
   are fields a client sets: a long one gets a refusal, and neither
   the shard nor an app node is taken for dead. A request line longer
   than two frames is not buffered to its end: the front worker closes
   the connection without a reply. *)
let test_web_long_fields () =
  let wc = Webcluster.build ~app_nodes:2 ~user_count:2 () in
  let u0, p0 = (Webcluster.users wc).(0) in
  let too_long = String.make (Wire.max_frame_len + 1) 'x' in
  let line_len = (2 * Wire.max_frame_len) + 1 in
  let too_long_line =
    String.make (line_len - String.length u0 - String.length p0 - 2) 'x'
  in
  let finished, outcomes =
    Webcluster.run_load wc ~concurrency:1
      [|
        (u0, too_long, u0);
        (u0, p0, too_long);
        (u0, p0, u0);
        (u0, p0, too_long_line);
        (u0, p0, u0);
      |]
  in
  Alcotest.(check bool) "all requests completed" true finished;
  let reply i = outcomes.(i).Webcluster.o_reply in
  Alcotest.(check string) "long password" "ERR auth: refused: dist: message too large"
    (reply 0);
  Alcotest.(check string) "long op" "REFUSED dist: message too large" (reply 1);
  Alcotest.(check bool) "the next request is served" true
    (contains_sub (reply 2) (Webcluster.secret_of wc u0));
  Alcotest.(check string) "line of 2 frames + 1 bytes" "ERR connection closed"
    (reply 3);
  Alcotest.(check bool) "the request after it is served" true
    (contains_sub (reply 4) (Webcluster.secret_of wc u0));
  Alcotest.(check int) "no failover" 0 (Webcluster.failovers wc)

let suite =
  [
    ("seal roundtrip", `Quick, test_seal_roundtrip);
    ("seal tagged tamper detection", `Quick, test_seal_tagged);
    ("wire msg roundtrip", `Quick, test_wire_roundtrip);
    ("wire deframe byte-at-a-time", `Quick, test_wire_deframe);
    Check.test_case ~print:print_stream "wire deframe is total" gen_stream
      prop_deframe_total;
    ("hostile runt frames", `Quick, test_hostile_runt_frames);
    ("oversized messages refused before sending", `Quick,
      test_oversized_refused);
    ("web cluster: long fields refused", `Quick, test_web_long_fields);
    ("names: mint/origin/trust", `Quick, test_names);
    ("proto: translate and clamp", `Quick, test_proto_translate);
    ("admit matches model", `Quick, test_admit_matches_model);
    ("remote gate echo", `Quick, test_remote_gate_echo);
    ("remote taint translated", `Quick, test_remote_taint_translated);
    ("remote grant claimed", `Quick, test_remote_grant_claimed);
    ("remote refusals", `Quick, test_remote_refusals);
    ("cluster: acceptance and packet capture", `Quick, test_cluster_acceptance);
    ("cluster: session token TTL expiry", `Quick, test_session_ttl_expiry);
    ("cluster: failover under link flap", `Quick, test_cluster_failover);
    ("cluster: scaling and reproducibility", `Slow, test_cluster_scaling);
    ("cluster: waves are stationary", `Quick, test_cluster_stationary);
  ]

let () = Alcotest.run "dist" [ ("dist", suite) ]
