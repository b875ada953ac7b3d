(** Seeded, deterministic fault injection.

    Driven by the [QTURBO_FAULTS] environment variable (or an explicit
    spec), faults let CI exercise every branch of the escalation ladder
    without contriving pathological Hamiltonians.

    {2 Spec grammar}

    {v QTURBO_FAULTS = clause [ "," clause ]*
clause        = site [ "#" component ] "=" kind
site          = "lm" | "lm-retry" | "nelder-mead" | "multistart"
              | "local-solve" | "fixed-solve" | "min-time"
              | "constraint-loop" | "refine" | "*"
kind          = "nan" | "budget" | "deadline" | "singular" | "retry" v}

    Examples: [lm=nan] makes the first ladder stage of every supervised
    solve see an all-NaN residual; [fixed-solve#2=deadline] expires the
    deadline at entry of component 2's runtime-fixed solve;
    [*=deadline] expires it everywhere; [constraint-loop=retry] forces
    the §5.2 position-constraint loop to its hard bound.

    Matching is a pure function of (spec, site, component) — no hidden
    counters — so injected behaviour is bitwise-identical at any
    [QTURBO_DOMAINS]. *)

type kind = Nan | Budget | Deadline | Singular | Retry

val kind_name : kind -> string

type clause = { site : string; comp : int option; kind : kind }
type spec = clause list

val empty : spec
val is_empty : spec -> bool
val known_sites : string list

val parse : string -> (spec, string) result
(** Rejects unknown sites and kinds with a message naming the bad
    clause.  The empty string parses to {!empty}. *)

val parse_exn : string -> spec
(** Raises [Invalid_argument] on a malformed spec. *)

val of_env : unit -> spec
(** Parse [QTURBO_FAULTS]; {!empty} when unset.  Raises
    [Invalid_argument] on a malformed value (a typo'd fault spec must
    never silently disable injection). *)

val fires : spec -> site:string -> component:int -> kind option
(** First clause matching the site (exactly, or via ["*"]) and the
    component (when the clause carries a [#id] filter). *)

val to_string : spec -> string
