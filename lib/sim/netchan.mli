(** Simulated point-to-point network fabric between [nodes] peers on
    one discrete-event engine.

    Every ordered (src, dst) pair is an independent full-duplex link
    with one-way propagation latency and finite bandwidth. A message
    occupies its link for its serialization time (bytes at the link
    rate) — back-to-back sends on the same link queue behind each
    other, so a saturated link shows up as delivery delay — and then
    arrives [latency_ns] later. Delivery order per link is FIFO;
    everything is deterministic virtual time.

    The fabric also owns the failure policy: per-node partitions and
    deterministic PRNG message loss. A dropped message is silent —
    timeouts in the layer above are what notice it. *)

type t

val create :
  ?drop_p:float -> ?seed:int -> Engine.t -> nodes:int -> latency_ns:int -> gbps:float -> t
(** [gbps] is link bandwidth in gigabits per second; [drop_p] (default
    0) is the per-message loss probability, drawn from a PRNG seeded
    with [seed]. *)

val send : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
(** Drop the message if either endpoint is partitioned (no loss draw)
    or the loss draw fires; otherwise charge [bytes] of serialization on
    the (src, dst) link and schedule the delivery callback at the
    arrival instant. *)

val set_partitioned : t -> node:int -> bool -> unit
(** A partitioned node neither sends nor receives until healed. *)

(** {1 Introspection} *)

val msgs : t -> int
val bytes : t -> int

val dropped : t -> int
(** Messages dropped, by partition or by loss. *)

val lost : t -> int
(** Messages dropped by the loss draw alone. *)

val total_busy_ns : t -> int
(** Serialization nanoseconds summed over every link. *)

val utilization : t -> float
(** Busy fraction of the *hottest* directed link since creation — the
    number that says "the network is the bottleneck" when it
    approaches 1. *)
