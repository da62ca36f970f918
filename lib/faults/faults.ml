module Rng = Histar_util.Rng
module Metrics = Histar_metrics.Metrics

(* Uniform float in [0,1) from the top 53 bits of a splitmix64 draw. *)
let unit_float rng =
  Int64.to_float (Int64.shift_right_logical (Rng.next64 rng) 11)
  *. (1.0 /. 9007199254740992.0)

module Schedule = struct
  type disk = {
    latent_rate : float;
    transient_rate : float;
    corrupt_rate : float;
  }

  type net = {
    loss_rate : float;
    corrupt_rate : float;
    duplicate_rate : float;
    reorder_rate : float;
    reorder_depth : int;
    jitter_us : int;
    flap_period_ms : int;
    flap_down_ms : int;
  }

  type crash = {
    crash_node : int;
    at_ms : int;
    restart_after_ms : int option;
  }

  type t = {
    seed : int64;
    disk : disk option;
    net : net option;
    crashes : crash list;
  }

  let default_disk =
    { latent_rate = 0.01; transient_rate = 0.02; corrupt_rate = 0.002 }

  let default_net =
    {
      loss_rate = 0.05;
      corrupt_rate = 0.01;
      duplicate_rate = 0.02;
      reorder_rate = 0.05;
      reorder_depth = 3;
      jitter_us = 200;
      flap_period_ms = 0;
      flap_down_ms = 0;
    }

  let none = { seed = 0x00C0FFEEL; disk = None; net = None; crashes = [] }

  let mk ?(seed = 0x00C0FFEEL) ?disk ?net ?(crashes = []) () =
    { seed; disk; net; crashes }

  let disk_fields d =
    [
      ("latent", Printf.sprintf "%g" d.latent_rate);
      ("transient", Printf.sprintf "%g" d.transient_rate);
      ("corrupt", Printf.sprintf "%g" d.corrupt_rate);
    ]

  let net_fields n =
    [
      ("loss", Printf.sprintf "%g" n.loss_rate);
      ("corrupt", Printf.sprintf "%g" n.corrupt_rate);
      ("dup", Printf.sprintf "%g" n.duplicate_rate);
      ("reorder", Printf.sprintf "%g" n.reorder_rate);
      ("depth", string_of_int n.reorder_depth);
      ("jitter", string_of_int n.jitter_us);
      ("flap_period", string_of_int n.flap_period_ms);
      ("flap_down", string_of_int n.flap_down_ms);
    ]

  let crash_fields c =
    [ ("node", string_of_int c.crash_node); ("at", string_of_int c.at_ms) ]
    @ Option.(
        to_list (map (fun r -> ("restart", string_of_int r)) c.restart_after_ms))

  let to_string t =
    let section name fields =
      name ^ ":"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) fields)
    in
    String.concat ";"
      (Printf.sprintf "seed=0x%Lx" t.seed
      :: Option.(to_list (map (fun d -> section "disk" (disk_fields d)) t.disk))
      @ Option.(to_list (map (fun n -> section "net" (net_fields n)) t.net))
      @ List.map (fun c -> section "crash" (crash_fields c)) t.crashes)

  let parse_kvs s =
    (* "k=v,k=v" -> assoc list; raises Failure on malformed input *)
    String.split_on_char ',' s
    |> List.filter (fun s -> s <> "")
    |> List.map (fun kv ->
           match String.index_opt kv '=' with
           | Some i ->
               ( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
           | None -> failwith (Printf.sprintf "malformed field %S" kv))

  let get_f kvs key dflt =
    match List.assoc_opt key kvs with
    | None -> dflt
    | Some v -> (
        match float_of_string_opt v with
        | Some f when f >= 0.0 && f <= 1.0 -> f
        | _ -> failwith (Printf.sprintf "bad rate %s=%s" key v))

  let get_i kvs key dflt =
    match List.assoc_opt key kvs with
    | None -> dflt
    | Some v -> (
        match int_of_string_opt v with
        | Some i when i >= 0 -> i
        | _ -> failwith (Printf.sprintf "bad int %s=%s" key v))

  let disk_of_kvs kvs =
    {
      latent_rate = get_f kvs "latent" default_disk.latent_rate;
      transient_rate = get_f kvs "transient" default_disk.transient_rate;
      corrupt_rate = get_f kvs "corrupt" default_disk.corrupt_rate;
    }

  let net_of_kvs kvs =
    {
      loss_rate = get_f kvs "loss" default_net.loss_rate;
      corrupt_rate = get_f kvs "corrupt" default_net.corrupt_rate;
      duplicate_rate = get_f kvs "dup" default_net.duplicate_rate;
      reorder_rate = get_f kvs "reorder" default_net.reorder_rate;
      reorder_depth = get_i kvs "depth" default_net.reorder_depth;
      jitter_us = get_i kvs "jitter" default_net.jitter_us;
      flap_period_ms = get_i kvs "flap_period" default_net.flap_period_ms;
      flap_down_ms = get_i kvs "flap_down" default_net.flap_down_ms;
    }

  let crash_of_kvs kvs =
    let req key =
      match List.assoc_opt key kvs with
      | None -> failwith (Printf.sprintf "crash section missing %s" key)
      | Some v -> (
          match int_of_string_opt v with
          | Some i when i >= 0 -> i
          | _ -> failwith (Printf.sprintf "bad int %s=%s" key v))
    in
    {
      crash_node = req "node";
      at_ms = req "at";
      restart_after_ms =
        (match List.assoc_opt "restart" kvs with
        | None -> None
        | Some _ -> Some (req "restart"));
    }

  let of_string s =
    try
      let t =
        List.fold_left
          (fun t section ->
            if section = "" then t
            else
              match String.index_opt section ':' with
              | Some i -> (
                  let name = String.sub section 0 i in
                  let rest =
                    String.sub section (i + 1) (String.length section - i - 1)
                  in
                  let kvs = parse_kvs rest in
                  match name with
                  | "disk" -> { t with disk = Some (disk_of_kvs kvs) }
                  | "net" -> { t with net = Some (net_of_kvs kvs) }
                  | "crash" ->
                      (* multiple crash sections accumulate in order *)
                      { t with crashes = t.crashes @ [ crash_of_kvs kvs ] }
                  | _ -> failwith (Printf.sprintf "unknown section %S" name))
              | None -> (
                  match parse_kvs section with
                  | [ ("seed", v) ] -> (
                      match Int64.of_string_opt v with
                      | Some seed -> { t with seed }
                      | None -> failwith (Printf.sprintf "bad seed %S" v))
                  | _ ->
                      failwith (Printf.sprintf "unknown section %S" section)))
          none
          (String.split_on_char ';' (String.trim s))
      in
      Ok t
    with Failure msg -> Error msg

  let of_env () =
    match Sys.getenv_opt "HISTAR_FAULTS" with
    | None | Some "" -> None
    | Some s -> (
        match of_string s with
        | Error msg ->
            failwith (Printf.sprintf "HISTAR_FAULTS: %s (in %S)" msg s)
        | Ok t -> Some t)

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

module Disk_faults = struct
  type read_verdict = Read_ok | Read_transient | Read_latent

  type t = {
    params : Schedule.disk;
    rng : Rng.t;
    latent : (int, unit) Hashtbl.t;
    c_transient : Metrics.Counter.t;
    c_latent_marked : Metrics.Counter.t;
    c_latent_reads : Metrics.Counter.t;
    c_corrupt_writes : Metrics.Counter.t;
  }

  let create (s : Schedule.t) =
    match s.disk with
    | None -> None
    | Some params ->
        (* Domain-separate the disk stream from the net stream so the
           two plans never share draws. *)
        Some
          {
            params;
            rng = Rng.create (Int64.logxor s.seed 0xD15C_FA17L);
            latent = Hashtbl.create 64;
            c_transient = Metrics.counter "faults.disk_transient";
            c_latent_marked = Metrics.counter "faults.disk_latent_marked";
            c_latent_reads = Metrics.counter "faults.disk_latent_reads";
            c_corrupt_writes = Metrics.counter "faults.disk_corrupt_writes";
          }

  let flip_byte rng data =
    if String.length data = 0 then data
    else
      let b = Bytes.of_string data in
      let i = Rng.int rng (Bytes.length b) in
      let mask = 1 lsl Rng.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
      Bytes.unsafe_to_string b

  let on_media_write t ~sector data =
    (* A write always clears the latent mark: the drive remaps the
       sector, so freshly written data is readable again. *)
    Hashtbl.remove t.latent sector;
    let data =
      if unit_float t.rng < t.params.corrupt_rate then (
        Metrics.Counter.incr t.c_corrupt_writes;
        flip_byte t.rng data)
      else data
    in
    if unit_float t.rng < t.params.latent_rate then (
      Hashtbl.replace t.latent sector ();
      Metrics.Counter.incr t.c_latent_marked);
    data

  let on_read t ~sector =
    if Hashtbl.mem t.latent sector then (
      Metrics.Counter.incr t.c_latent_reads;
      Read_latent)
    else if unit_float t.rng < t.params.transient_rate then (
      Metrics.Counter.incr t.c_transient;
      Read_transient)
    else Read_ok

  let is_latent t ~sector = Hashtbl.mem t.latent sector
  let latent_count t = Hashtbl.length t.latent
end

module Net_faults = struct
  type verdict = {
    drop : [ `No | `Loss | `Flap ];
    corrupt : bool;
    duplicate : bool;
    hold : int;
    jitter_ns : int64;
  }

  type t = {
    params : Schedule.net;
    rng : Rng.t;
    c_lost : Metrics.Counter.t;
    c_flap : Metrics.Counter.t;
    c_corrupt : Metrics.Counter.t;
    c_dup : Metrics.Counter.t;
    c_held : Metrics.Counter.t;
  }

  let create (s : Schedule.t) =
    match s.net with
    | None -> None
    | Some params ->
        Some
          {
            params;
            rng = Rng.create (Int64.logxor s.seed 0x4E7F_A17L);
            c_lost = Metrics.counter "faults.net_lost";
            c_flap = Metrics.counter "faults.net_flap_drops";
            c_corrupt = Metrics.counter "faults.net_corrupt";
            c_dup = Metrics.counter "faults.net_duplicated";
            c_held = Metrics.counter "faults.net_held";
          }

  let link_up t ~now_ns =
    if t.params.flap_period_ms <= 0 || t.params.flap_down_ms <= 0 then true
    else
      let period = Int64.mul (Int64.of_int t.params.flap_period_ms) 1_000_000L in
      let down = Int64.mul (Int64.of_int t.params.flap_down_ms) 1_000_000L in
      let phase = Int64.rem now_ns period in
      (* the link is down for the trailing flap_down of each period,
         so time 0 starts with the link up *)
      Int64.compare phase (Int64.sub period down) < 0

  let on_frame t ~now_ns =
    let p = t.params in
    if not (link_up t ~now_ns) then (
      Metrics.Counter.incr t.c_flap;
      { drop = `Flap; corrupt = false; duplicate = false; hold = 0; jitter_ns = 0L })
    else if unit_float t.rng < p.loss_rate then (
      Metrics.Counter.incr t.c_lost;
      { drop = `Loss; corrupt = false; duplicate = false; hold = 0; jitter_ns = 0L })
    else
      let corrupt = unit_float t.rng < p.corrupt_rate in
      if corrupt then Metrics.Counter.incr t.c_corrupt;
      let duplicate = unit_float t.rng < p.duplicate_rate in
      if duplicate then Metrics.Counter.incr t.c_dup;
      let hold =
        if p.reorder_depth > 0 && unit_float t.rng < p.reorder_rate then (
          Metrics.Counter.incr t.c_held;
          1 + Rng.int t.rng p.reorder_depth)
        else 0
      in
      let jitter_ns =
        if p.jitter_us > 0 then
          Int64.mul (Int64.of_int (Rng.int t.rng (p.jitter_us + 1))) 1_000L
        else 0L
      in
      { drop = `No; corrupt; duplicate; hold; jitter_ns }

  let corrupt_bytes t b =
    if Bytes.length b > 0 then begin
      let i = Rng.int t.rng (Bytes.length b) in
      let mask = 1 lsl Rng.int t.rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask))
    end
end

module Node_faults = struct
  (* Node-crash plan: unlike the probabilistic disk/net plans this one
     is purely schedule-driven — a crash entry names a node, the
     virtual millisecond it dies, and optionally how many milliseconds
     later it restarts. The driver polls [due] against global virtual
     time; each event fires exactly once, in time order (kill before
     restart on a tie, list order after that), so a run is a pure
     function of the schedule string. *)

  type action = Kill of int | Restart of int

  type t = {
    mutable pending : (int64 * int * action) list;
        (* (virtual ns, tiebreak rank, action), sorted *)
    c_kills : Metrics.Counter.t;
    c_restarts : Metrics.Counter.t;
  }

  let ns_of_ms ms = Int64.mul (Int64.of_int ms) 1_000_000L

  let create (s : Schedule.t) =
    match s.crashes with
    | [] -> None
    | crashes ->
        let events =
          List.concat
            (List.mapi
               (fun i (c : Schedule.crash) ->
                 let kill = (ns_of_ms c.at_ms, (2 * i) + 0, Kill c.crash_node) in
                 match c.restart_after_ms with
                 | None -> [ kill ]
                 | Some r ->
                     [
                       kill;
                       ( ns_of_ms (c.at_ms + r),
                         (2 * i) + 1,
                         Restart c.crash_node );
                     ])
               crashes)
        in
        Some
          {
            pending =
              List.sort
                (fun (t1, r1, _) (t2, r2, _) ->
                  match Int64.compare t1 t2 with 0 -> compare r1 r2 | c -> c)
                events;
            c_kills = Metrics.counter "faults.node_kills";
            c_restarts = Metrics.counter "faults.node_restarts";
          }

  let due t ~now_ns =
    let rec take acc = function
      | (at, _, a) :: rest when Int64.compare at now_ns <= 0 ->
          (match a with
          | Kill _ -> Metrics.Counter.incr t.c_kills
          | Restart _ -> Metrics.Counter.incr t.c_restarts);
          take (a :: acc) rest
      | rest ->
          t.pending <- rest;
          List.rev acc
    in
    take [] t.pending

  let remaining t = List.length t.pending
end
