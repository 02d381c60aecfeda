(** Linearizability checking of recorded dictionary histories.

    A Wing–Gong / Lowe-style configuration search over {!History}
    entries, with three scalability levers:

    - {b Unobservable-Info pre-pass}: before anything else, every
      [Info] op none of whose writes is observed is dropped. The
      observed set is the (key, value option) pairs that [Ok] outcomes
      report — a [Get]'s [Got v], each [Old] entry of a [Txn] paired
      with its key. A [Put k v] writes [(k, Some v)], a [Del k] writes
      [(k, None)], a [Txn] each of its pairs, a [Get] nothing (so an
      [Info] read is always dropped). Sound because deleting such an op
      from any linearization keeps every [Ok] outcome and real-time
      constraint: until the next write to its key no [Ok] op can read
      that key (it would report the unobserved value), after it the
      key's state is the same either way, and the model's writes never
      depend on what they read.
    - {b P-compositionality}: operations are partitioned into per-key
      connected components (multi-key [Txn]s merge the components of
      their keys via union-find). Linearizability of a KV map is
      compositional over this partition, so each component is checked —
      and shrunk — independently.
    - {b Memoized search}: a configuration is the pair (set of
      linearized ops, model state); every visited configuration is
      cached, so the search never re-explores an equivalent frontier
      reached through a different interleaving.

    Real-time order comes from the recorded intervals: the next
    linearized op may be any un-linearized op invoked no later than the
    earliest return among un-linearized completed ops. [Fail] ops are
    excluded (they never executed); [Info] ops are optional and
    unconstrained at the end of the search — they may have taken effect
    at any point after their invocation, or never.

    The search carries a configuration budget and returns {!Unknown}
    rather than hanging when a history is too adversarial to decide —
    callers must treat [Unknown] as "no verdict", never as a failure. *)

type verdict =
  | Linearizable
  | Non_linearizable of History.op list
      (** A minimal non-linearizable sub-history of one offending
          component, shrunk with ddmin under a grounding side-condition
          (the writer of every observed value stays in the witness). *)
  | Unknown of string  (** budget exhausted; the reason is human-readable *)

type report = {
  r_verdict : verdict;
  r_components : int;  (** per-key components checked (histories) *)
  r_steps : int;  (** search configurations consumed *)
  r_pruned : int;  (** unobservable [Info] ops the pre-pass dropped *)
}

val default_max_steps : int
(** 2M configurations. Running them all takes 2–8.4 s of host time on
    one core of a 2-core x86-64 container (OCaml 5.1.1), depending on
    the history and on host load (measured on 81- and 88-op nemesis
    histories). On the 300 histories of the CI lin soak the search
    needs a median of 268 configurations and at most 0.21M; one
    history (elastic seed 63) needs 2.44M and ends {!Unknown}. *)

val check : ?max_steps:int -> History.op list -> verdict

val check_report : ?max_steps:int -> History.op list -> report
(** Like {!check}, plus coverage counters for gauges/reporting. *)

val pp_verdict : Format.formatter -> verdict -> unit
