open Dsim

let tag = "ctm-store"
let client_tag = "ctm-client"

type stats = {
  mutable reads : int;
  mutable cas_ok : int;
  mutable cas_fail : int;
}

type Msg.t +=
  | Read_req
  | Read_resp of { version : int; value : int }
  | Cas_req of { expect : int; value : int }
  | Cas_resp of { ok : bool; version : int }

let component (ctx : Context.t) () =
  let version = ref 0 in
  let value = ref 0 in
  let stats = { reads = 0; cas_ok = 0; cas_fail = 0 } in
  let on_receive ~src msg =
    match msg with
    | Read_req ->
        stats.reads <- stats.reads + 1;
        ctx.Context.send ~dst:src ~tag:client_tag
          (Read_resp { version = !version; value = !value })
    | Cas_req { expect; value = v } ->
        let ok = expect = !version in
        if ok then begin
          version := !version + 1;
          value := v;
          stats.cas_ok <- stats.cas_ok + 1
        end
        else stats.cas_fail <- stats.cas_fail + 1;
        ctx.Context.send ~dst:src ~tag:client_tag (Cas_resp { ok; version = !version })
    | _ -> ()
  in
  (Component.make ~name:tag ~on_receive (), stats)
