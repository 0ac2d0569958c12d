(** Descriptive statistics for experiment results (boxplots over runs,
    linear fits for the Fig. 2 trend check). *)

type boxplot = {
  n : int;
  minimum : float;
  q1 : float;
  median : float;
  q3 : float;
  maximum : float;
  mean : float;
  stddev : float;
}

val mean : float list -> float

val stddev : float list -> float
(** Sample standard deviation. *)

val quantile : float list -> float -> float
(** [quantile l q] with linear interpolation (R type 7). *)

val median : float list -> float

val boxplot : float list -> boxplot
(** @raise Invalid_argument on an empty sample. *)

val linear_fit : (float * float) list -> float * float
(** [linear_fit pts] is [(intercept, slope)] of the least-squares line. *)

val r_squared : (float * float) list -> float
(** Coefficient of determination of the least-squares fit. *)

