(** Wireless-sensor-network duty-cycle scheduling (Section 2).

    A surveillance field is divided into coverage areas; each area has a set
    of redundant battery-powered nodes. A node on duty covers its area and
    drains energy; when the battery is empty the node crashes (power
    depletion — every node is eventually faulty, as the paper stresses).
    Nodes that volunteer for duty contend for the area's coverage resource:
    being on duty = eating, so same-area nodes are dining neighbors.

    Two schedulers are compared:
    - [Dining]: the WF-◇WX scheduler over a ◇P heartbeat detector. Finitely
      many scheduling mistakes put redundant nodes on duty together (wasted
      energy, but only a performance cost — exactly the paper's argument for
      ◇WX here); wait-freedom keeps a volunteer on duty despite crashes, so
      the network lifetime approaches [nodes_per_area x initial_energy].
    - [All_on]: every node is always on duty — full redundancy, maximal
      coverage, and a lifetime of one battery. *)

type config = {
  areas : int;
  nodes_per_area : int;
  initial_energy : int;  (** Duty ticks a battery sustains. *)
  duty_ticks : int;  (** Length of one duty session. *)
  rest_ticks : int;  (** Pause before volunteering again. *)
}

val default_config : config

type scheduler = Dining | All_on

type t = {
  engine : Dsim.Engine.t;
  config : config;
  scheduler : scheduler;
  instance : string;
  node_count : int;
  energy : int array;  (** Remaining energy per node (live view). *)
}

val setup : engine:Dsim.Engine.t -> ?config:config -> scheduler:scheduler -> unit -> t
(** Registers all node components (detector + scheduler + volunteer client)
    and installs the energy-drain hook. The engine must have been created
    with [n = areas * nodes_per_area]. *)

type sample = {
  at : Dsim.Types.time;
  covered : int;  (** Areas with >= 1 node on duty. *)
  redundant : int;  (** Areas with >= 2 nodes on duty (wasted energy). *)
  alive : int;  (** Live nodes. *)
}

val coverage_series : t -> sample_every:int -> horizon:Dsim.Types.time -> sample list
(** Post-hoc sampling of the run's trace. *)

val lifetime : t -> Dsim.Types.time option
(** First instant an area lost its last live node ([None] if the network
    outlived the run). *)
