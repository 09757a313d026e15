(** Tail percentiles for the benchmark's timings.

    Every reported timing carries its sample count, and a tail
    percentile is reported only when enough samples lie beyond it to
    make it more than the single largest value. *)

val min_beyond : int
(** Samples that must lie strictly beyond a tail percentile for it to
    be reported: 10. *)

val beyond : n:int -> float -> int
(** [beyond ~n q] is the number of the [n] samples that lie beyond the
    [q] quantile: [floor (n * (1 - q))]. *)

val tail : float array -> float -> (float, string) result
(** [tail xs q] is [Ok (Stats.quantile xs q)] when at least
    {!min_beyond} samples lie beyond it, [Error reason] otherwise — a
    p99 needs 1 000 samples. *)
