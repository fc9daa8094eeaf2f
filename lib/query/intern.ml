(* string keys compared with [String.equal]: the polymorphic table's
   [compare] costs more than the hash on short constants *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  ids : int Tbl.t;
  mutable names : string array;  (* names.(id), valid below [n] *)
  mutable n : int;
}

let create () = { ids = Tbl.create 256; names = Array.make 16 ""; n = 0 }

let intern t s =
  match Tbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      let id = t.n in
      if id = Array.length t.names then begin
        let grown = Array.make (2 * Array.length t.names) "" in
        Array.blit t.names 0 grown 0 id;
        t.names <- grown
      end;
      t.names.(id) <- s;
      t.n <- id + 1;
      Tbl.add t.ids s id;
      id

let find t s = Tbl.find_opt t.ids s

let name t id =
  if id < 0 || id >= t.n then invalid_arg "Intern.name: unallocated id";
  t.names.(id)

let size t = t.n
