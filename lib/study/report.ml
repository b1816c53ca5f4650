type align = L | R

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | L -> s ^ String.make n ' '
    | R -> String.make n ' ' ^ s

let table ?title ~header ~align rows =
  let ncols = List.length header in
  let align_for i = try List.nth align i with Failure _ | Invalid_argument _ -> L in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let render_row row =
    let cells =
      List.mapi (fun i cell -> pad (align_for i) widths.(i) cell) row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "+"
  in
  let buf = Buffer.create 1024 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let fmt_pct v = Printf.sprintf "%.2f" v
