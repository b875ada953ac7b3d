type kind = Nan | Budget | Deadline | Singular | Retry

let kind_name = function
  | Nan -> "nan"
  | Budget -> "budget"
  | Deadline -> "deadline"
  | Singular -> "singular"
  | Retry -> "retry"

let kind_of_string = function
  | "nan" -> Some Nan
  | "budget" -> Some Budget
  | "deadline" -> Some Deadline
  | "singular" -> Some Singular
  | "retry" -> Some Retry
  | _ -> None

type clause = { site : string; comp : int option; kind : kind }
type spec = clause list

let empty = []
let is_empty s = s = []

let clause_to_string c =
  Printf.sprintf "%s%s=%s" c.site
    (match c.comp with None -> "" | Some i -> "#" ^ string_of_int i)
    (kind_name c.kind)

let to_string s = String.concat "," (List.map clause_to_string s)

let known_sites =
  [
    (* escalation-ladder stages *)
    "lm";
    "lm-retry";
    "nelder-mead";
    "multistart";
    (* pipeline call sites *)
    "local-solve";
    "fixed-solve";
    "min-time";
    "constraint-loop";
    "refine";
  ]

let parse_clause s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "fault clause %S: expected site=kind" s)
  | Some i -> (
      let lhs = String.sub s 0 i in
      let rhs = String.sub s (i + 1) (String.length s - i - 1) in
      let site, comp =
        match String.index_opt lhs '#' with
        | None -> (lhs, Ok None)
        | Some j -> (
            let site = String.sub lhs 0 j in
            let id = String.sub lhs (j + 1) (String.length lhs - j - 1) in
            match int_of_string_opt id with
            | Some c when c >= 0 -> (site, Ok (Some c))
            | _ ->
                ( site,
                  Error
                    (Printf.sprintf
                       "fault clause %S: component filter %S is not a \
                        non-negative integer"
                       s id) ))
      in
      match comp with
      | Error e -> Error e
      | Ok comp -> (
          if site = "" then
            Error (Printf.sprintf "fault clause %S: empty site" s)
          else if site <> "*" && not (List.mem site known_sites) then
            Error
              (Printf.sprintf "fault clause %S: unknown site %S (known: %s, *)"
                 s site
                 (String.concat ", " known_sites))
          else
            match kind_of_string rhs with
            | Some kind -> Ok { site; comp; kind }
            | None ->
                Error
                  (Printf.sprintf
                     "fault clause %S: unknown kind %S (known: nan, budget, \
                      deadline, singular, retry)"
                     s rhs)))

let parse s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    let parts = String.split_on_char ',' s |> List.map String.trim in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match parse_clause p with
          | Ok c -> go (c :: acc) rest
          | Error e -> Error e)
    in
    go [] parts

let parse_exn s =
  match parse s with
  | Ok spec -> spec
  | Error e -> invalid_arg ("QTURBO_FAULTS: " ^ e)

let of_env () =
  match Sys.getenv_opt "QTURBO_FAULTS" with
  | None | Some "" -> []
  | Some s -> parse_exn s

(* Pure in (spec, site, component): no mutable counters, so fault firing
   is identical whatever order (or domain) the call sites run in. *)
let fires spec ~site ~component =
  List.find_map
    (fun c ->
      if
        (c.site = "*" || c.site = site)
        && match c.comp with None -> true | Some id -> id = component
      then Some c.kind
      else None)
    spec
