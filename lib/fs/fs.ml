module Codec = Tinca_util.Codec

type config = {
  ninodes : int;
  journal_len : int;
  max_dirty_blocks : int;
  journaled : bool;
  ordered : bool;
  page_cache_pages : int;
}

let default_config =
  { ninodes = 4096; journal_len = 1024; max_dirty_blocks = 256; journaled = true;
    ordered = false; page_cache_pages = 0 }

exception File_exists of string
exception No_such_file of string
exception No_space

let magic = 0x54494E46_53563100L (* "TINFSV1" *)
let bs = 4096
let inode_size = 128
let inodes_per_block = bs / inode_size
let dirent_size = 64
let dirents_per_block = bs / dirent_size
let max_name = 58
let ndirect = 12
let ptrs_per_block = bs / 4
let root_ino = 0

type geometry = {
  nblocks : int;
  inode_table_start : int;
  inode_blocks : int;
  bitmap_start : int;
  bitmap_blocks : int;
  data_start : int;
  data_blocks : int;
  journal_start : int;
  journal_len : int;
}

type t = {
  cfg : config;
  backend : Backend.t;
  geo : geometry;
  (* Running transaction: staged blocks, newest content; the flag marks
     file data (as opposed to metadata) for ordered mode. *)
  dirty : (int, bool * bytes) Hashtbl.t;
  mutable dirty_order : int list; (* reversed *)
  (* DRAM caches, rebuildable from media. *)
  bitmap : Bytes.t; (* shadow of the bitmap region *)
  mutable free_inodes : int list;
  names : (string, int) Hashtbl.t; (* name -> inode *)
  dirent_of : (string, int) Hashtbl.t; (* name -> dirent index in root dir *)
  mutable free_dirents : int list;
  mutable rotor : int; (* data allocation rotor (bit index) *)
  mutable tick : int; (* logical mtime *)
  (* Volatile DRAM page cache of clean file-data blocks (Fig 1(c)'s
     buffer cache above the NVM cache); disabled when page_cache_pages =
     0. *)
  page_cache : (int, bytes) Hashtbl.t;
  mutable page_lru : int list; (* mru first; small, rebuilt lazily *)
  (* Committed metadata blocks (superblock, inode table, bitmap, pointer
     and directory blocks), as the backend holds them: Ext4 keeps these
     in its DRAM buffer cache too.  Unbounded but small, about 0.1 % of
     the file data; file data never enters it. *)
  meta : (int, bytes) Hashtbl.t;
  mutable meta_reads : int; (* backend reads, by kind *)
  mutable data_reads : int;
}

(* --- geometry ----------------------------------------------------------- *)

let compute_geometry ~(config : config) ~nblocks =
  let inode_blocks = (config.ninodes + inodes_per_block - 1) / inodes_per_block in
  let bitmap_start = 1 + inode_blocks in
  let journal_start = nblocks - config.journal_len in
  (* Find the smallest bitmap that covers the remaining data region. *)
  let bits_per_block = bs * 8 in
  let rec fit bitmap_blocks =
    let data_start = bitmap_start + bitmap_blocks in
    let data_blocks = journal_start - data_start in
    if data_blocks <= 0 then invalid_arg "Fs: device too small";
    if bitmap_blocks * bits_per_block >= data_blocks then (bitmap_blocks, data_start, data_blocks)
    else fit (bitmap_blocks + 1)
  in
  let bitmap_blocks, data_start, data_blocks = fit 1 in
  {
    nblocks;
    inode_table_start = 1;
    inode_blocks;
    bitmap_start;
    bitmap_blocks;
    data_start;
    data_blocks;
    journal_start;
    journal_len = config.journal_len;
  }

(* --- block staging ------------------------------------------------------ *)

(* Bounded, coarse LRU for the page cache: cheap because the cache is
   small and eviction is rare relative to hits. *)
let page_cache_insert t blkno b =
  if t.cfg.page_cache_pages > 0 then begin
    if not (Hashtbl.mem t.page_cache blkno) then begin
      if Hashtbl.length t.page_cache >= t.cfg.page_cache_pages then begin
        (* Evict the LRU entry. *)
        match List.rev t.page_lru with
        | victim :: _ ->
            Hashtbl.remove t.page_cache victim;
            t.page_lru <- List.filter (fun b -> b <> victim) t.page_lru
        | [] -> Hashtbl.reset t.page_cache
      end;
      t.page_lru <- blkno :: t.page_lru
    end;
    Hashtbl.replace t.page_cache blkno (Bytes.copy b)
  end

let page_cache_touch t blkno =
  if t.cfg.page_cache_pages > 0 then
    t.page_lru <- blkno :: List.filter (fun b -> b <> blkno) t.page_lru

(* A file-data block's newest content, a private copy. *)
let read_blk t blkno =
  match Hashtbl.find_opt t.dirty blkno with
  | Some (_, b) -> Bytes.copy b
  | None -> (
      match Hashtbl.find_opt t.page_cache blkno with
      | Some b ->
          page_cache_touch t blkno;
          Bytes.copy b
      | None ->
          t.data_reads <- t.data_reads + 1;
          let b = t.backend.Backend.read_block blkno in
          page_cache_insert t blkno b;
          b)

(* A metadata block's newest content, shared with the running
   transaction or the table: the caller must not mutate it.  The
   backend is read once per block. *)
let peek_meta t blkno =
  match Hashtbl.find_opt t.dirty blkno with
  | Some (_, b) -> b
  | None -> (
      match Hashtbl.find_opt t.meta blkno with
      | Some b -> b
      | None ->
          t.meta_reads <- t.meta_reads + 1;
          let b = t.backend.Backend.read_block blkno in
          Hashtbl.replace t.meta blkno b;
          b)

(* A private copy of a metadata block, to modify and stage. *)
let read_meta t blkno = Bytes.copy (peek_meta t blkno)

let stage ?(data = false) t blkno block =
  if not (Hashtbl.mem t.dirty blkno) then t.dirty_order <- blkno :: t.dirty_order;
  Hashtbl.replace t.dirty blkno (data, block)

let dirty_blocks t = Hashtbl.length t.dirty

let fsync t =
  if Hashtbl.length t.dirty > 0 then begin
    let blocks = List.rev_map (fun blkno -> (blkno, Hashtbl.find t.dirty blkno)) t.dirty_order in
    let blocks = List.rev blocks in
    (if not t.cfg.journaled then
       t.backend.Backend.write_blocks (List.map (fun (blkno, (_, b)) -> (blkno, b)) blocks)
    else if t.cfg.ordered then begin
      (* Ext4 data=ordered: file data reaches its home location before
         the metadata commits, so metadata never points at stale blocks —
         but data writes themselves are not atomic. *)
      let data = List.filter_map (fun (blkno, (d, b)) -> if d then Some (blkno, b) else None) blocks in
      let meta = List.filter_map (fun (blkno, (d, b)) -> if d then None else Some (blkno, b)) blocks in
      t.backend.Backend.write_blocks data;
      t.backend.Backend.commit_blocks meta
    end
    else t.backend.Backend.commit_blocks (List.map (fun (blkno, (_, b)) -> (blkno, b)) blocks));
    (* Committed metadata refreshes the table; a block committed as file
       data leaves it (a freed pointer block may come back as data) and
       becomes a clean page-cache resident. *)
    List.iter
      (fun (blkno, (data, b)) ->
        if data then begin
          Hashtbl.remove t.meta blkno;
          page_cache_insert t blkno b
        end
        else Hashtbl.replace t.meta blkno b)
      blocks;
    Hashtbl.reset t.dirty;
    t.dirty_order <- []
  end

let maybe_commit t = if Hashtbl.length t.dirty >= t.cfg.max_dirty_blocks then fsync t

let shutdown t =
  fsync t;
  t.backend.Backend.sync ()

(* --- superblock --------------------------------------------------------- *)

let write_super t =
  let b = Bytes.make bs '\000' in
  Codec.set_u64 b 0 magic;
  Codec.set_u32 b 8 t.geo.nblocks;
  Codec.set_u32 b 12 t.cfg.ninodes;
  Codec.set_u32 b 16 t.geo.inode_table_start;
  Codec.set_u32 b 20 t.geo.inode_blocks;
  Codec.set_u32 b 24 t.geo.bitmap_start;
  Codec.set_u32 b 28 t.geo.bitmap_blocks;
  Codec.set_u32 b 32 t.geo.data_start;
  Codec.set_u32 b 36 t.geo.data_blocks;
  Codec.set_u32 b 40 t.geo.journal_start;
  Codec.set_u32 b 44 t.geo.journal_len;
  stage t 0 b

let journal_start t = t.geo.journal_start
let journal_len t = t.geo.journal_len

(* --- inode accessors ----------------------------------------------------- *)

let inode_block t ino = t.geo.inode_table_start + (ino / inodes_per_block)
let inode_off ino = ino mod inodes_per_block * inode_size

let kind_free = 0
let kind_file = 1
let kind_dir = 2

(* Read-modify-write one inode; [f] receives the 4 KB inode-table block
   and the inode's byte offset inside it, mutates, and the block is
   staged. *)
let with_inode t ino f =
  let blkno = inode_block t ino in
  let b = read_meta t blkno in
  let r = f b (inode_off ino) in
  stage t blkno b;
  r

let inode_peek t ino f = f (peek_meta t (inode_block t ino)) (inode_off ino)

let get_kind b off = Codec.get_u8 b off
let set_kind b off v = Codec.set_u8 b off v
let get_size b off = Codec.get_u64_int b (off + 8)
let set_size b off v = Codec.set_u64_int b (off + 8) v
let set_mtime b off v = Codec.set_u64_int b (off + 16) v
let get_direct b off i = Codec.get_u32 b (off + 24 + (i * 4))
let set_direct b off i v = Codec.set_u32 b (off + 24 + (i * 4)) v
let get_ind b off = Codec.get_u32 b (off + 24 + (ndirect * 4))
let set_ind b off v = Codec.set_u32 b (off + 24 + (ndirect * 4)) v
let get_dind b off = Codec.get_u32 b (off + 24 + (ndirect * 4) + 4)
let set_dind b off v = Codec.set_u32 b (off + 24 + (ndirect * 4) + 4) v

(* --- data block allocation ---------------------------------------------- *)

let bit_get bytes i = Char.code (Bytes.get bytes (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set bytes i v =
  let c = Char.code (Bytes.get bytes (i / 8)) in
  let c = if v then c lor (1 lsl (i mod 8)) else c land lnot (1 lsl (i mod 8)) in
  Bytes.set bytes (i / 8) (Char.chr c)

let stage_bitmap_bit t bit =
  (* Propagate one shadow bit into its staged bitmap block. *)
  let byte = bit / 8 in
  let blk_idx = byte / bs in
  let blkno = t.geo.bitmap_start + blk_idx in
  let b = read_meta t blkno in
  Bytes.set b (byte mod bs) (Bytes.get t.bitmap byte);
  stage t blkno b

let alloc_data t =
  let n = t.geo.data_blocks in
  let rec scan tries i =
    if tries >= n then raise No_space
    else if not (bit_get t.bitmap i) then i
    else scan (tries + 1) ((i + 1) mod n)
  in
  let bit = scan 0 t.rotor in
  t.rotor <- (bit + 1) mod n;
  bit_set t.bitmap bit true;
  stage_bitmap_bit t bit;
  t.geo.data_start + bit

let free_data t blkno =
  let bit = blkno - t.geo.data_start in
  assert (bit >= 0 && bit < t.geo.data_blocks);
  bit_set t.bitmap bit false;
  stage_bitmap_bit t bit

(* Allocate a zeroed data block and stage its content. *)
let alloc_zeroed t =
  let blkno = alloc_data t in
  stage t blkno (Bytes.make bs '\000');
  blkno

(* --- block mapping (bmap) ------------------------------------------------ *)

let max_fbi = ndirect + ptrs_per_block + (ptrs_per_block * ptrs_per_block)

(* Map file block index [fbi] of inode [ino] to a device block, allocating
   missing levels when [alloc].  Returns 0 when unmapped and not
   allocating.  Only an allocation stages the block holding the pointer,
   so a lookup dirties nothing. *)
let bmap t ino fbi ~alloc =
  if fbi < 0 || fbi >= max_fbi then raise No_space;
  let follow cur set =
    if cur <> 0 || not alloc then cur
    else begin
      let fresh = alloc_zeroed t in
      set fresh;
      fresh
    end
  in
  let in_inode get set =
    follow (inode_peek t ino get) (fun v -> with_inode t ino (fun b off -> set b off v))
  in
  let in_block container idx =
    if container = 0 then 0
    else
      follow (Codec.get_u32 (peek_meta t container) (idx * 4)) (fun v ->
          let b = read_meta t container in
          Codec.set_u32 b (idx * 4) v;
          stage t container b)
  in
  if fbi < ndirect then
    in_inode (fun b off -> get_direct b off fbi) (fun b off v -> set_direct b off fbi v)
  else if fbi < ndirect + ptrs_per_block then in_block (in_inode get_ind set_ind) (fbi - ndirect)
  else begin
    let rel = fbi - ndirect - ptrs_per_block in
    in_block (in_block (in_inode get_dind set_dind) (rel / ptrs_per_block)) (rel mod ptrs_per_block)
  end

(* --- directory ------------------------------------------------------------ *)

let dirent_blkno t dirent_idx ~alloc =
  bmap t root_ino (dirent_idx / dirents_per_block) ~alloc

let read_dirent_block t dirent_idx ~alloc =
  let blkno = dirent_blkno t dirent_idx ~alloc in
  if blkno = 0 then None else Some (blkno, read_meta t blkno)

let write_dirent t dirent_idx ~ino ~name =
  if String.length name > max_name || name = "" then invalid_arg "Fs: bad file name";
  match read_dirent_block t dirent_idx ~alloc:true with
  | None -> raise No_space
  | Some (blkno, b) ->
      let off = dirent_idx mod dirents_per_block * dirent_size in
      Bytes.fill b off dirent_size '\000';
      Codec.set_u32 b off ino;
      Codec.set_u8 b (off + 4) kind_file;
      Codec.set_u8 b (off + 5) (String.length name);
      Bytes.blit_string name 0 b (off + 6) (String.length name);
      stage t blkno b

let clear_dirent t dirent_idx =
  match read_dirent_block t dirent_idx ~alloc:false with
  | None -> ()
  | Some (blkno, b) ->
      let off = dirent_idx mod dirents_per_block * dirent_size in
      Bytes.fill b off dirent_size '\000';
      stage t blkno b

(* Grow the root directory by one block's worth of entries; returns the
   first fresh dirent index. *)
let grow_directory t =
  let nents =
    inode_peek t root_ino (fun b off -> get_size b off) / dirent_size
  in
  let fbi = nents / dirents_per_block in
  ignore (bmap t root_ino fbi ~alloc:true);
  with_inode t root_ino (fun b off ->
      set_size b off ((nents + dirents_per_block) * dirent_size);
      set_mtime b off t.tick);
  List.init dirents_per_block (fun i -> nents + i)

(* --- construction ---------------------------------------------------------- *)

let mk ~config ~backend ~geo =
  {
    cfg = config;
    backend;
    geo;
    dirty = Hashtbl.create 512;
    dirty_order = [];
    bitmap = Bytes.make (geo.bitmap_blocks * bs) '\000';
    free_inodes = [];
    names = Hashtbl.create 4096;
    dirent_of = Hashtbl.create 4096;
    free_dirents = [];
    rotor = 0;
    tick = 0;
    page_cache = Hashtbl.create 256;
    page_lru = [];
    meta = Hashtbl.create 64;
    meta_reads = 0;
    data_reads = 0;
  }

let format ~config backend =
  if backend.Backend.block_size <> bs then invalid_arg "Fs.format: block size must be 4096";
  let geo = compute_geometry ~config ~nblocks:backend.Backend.nblocks in
  let t = mk ~config ~backend ~geo in
  write_super t;
  (* Zero the inode table and bitmap. *)
  for i = 0 to geo.inode_blocks - 1 do
    stage t (geo.inode_table_start + i) (Bytes.make bs '\000')
  done;
  for i = 0 to geo.bitmap_blocks - 1 do
    stage t (geo.bitmap_start + i) (Bytes.make bs '\000')
  done;
  (* Root directory inode. *)
  with_inode t root_ino (fun b off ->
      set_kind b off kind_dir;
      set_size b off 0;
      set_mtime b off 0);
  t.free_inodes <- List.init (config.ninodes - 1) (fun i -> i + 1);
  fsync t;
  t

let mount ~config backend =
  if backend.Backend.block_size <> bs then invalid_arg "Fs.mount: block size must be 4096";
  let sb = backend.Backend.read_block 0 in
  if not (Int64.equal (Codec.get_u64 sb 0) magic) then failwith "Fs.mount: bad magic";
  let geo =
    {
      nblocks = Codec.get_u32 sb 8;
      inode_table_start = Codec.get_u32 sb 16;
      inode_blocks = Codec.get_u32 sb 20;
      bitmap_start = Codec.get_u32 sb 24;
      bitmap_blocks = Codec.get_u32 sb 28;
      data_start = Codec.get_u32 sb 32;
      data_blocks = Codec.get_u32 sb 36;
      journal_start = Codec.get_u32 sb 40;
      journal_len = Codec.get_u32 sb 44;
    }
  in
  if Codec.get_u32 sb 12 <> config.ninodes then failwith "Fs.mount: ninodes mismatch";
  let t = mk ~config ~backend ~geo in
  (* The superblock read above is the table's first entry. *)
  t.meta_reads <- 1;
  Hashtbl.replace t.meta 0 sb;
  (* The scans below read each bitmap, inode-table, pointer and
     directory block once, into the metadata table, and stage nothing: a
     fresh mount has nothing to commit. *)
  let read_once = peek_meta t in
  (* Load the bitmap shadow. *)
  for i = 0 to geo.bitmap_blocks - 1 do
    Bytes.blit (read_once (geo.bitmap_start + i)) 0 t.bitmap (i * bs) bs
  done;
  (* Free inode list. *)
  for ino = config.ninodes - 1 downto 1 do
    if get_kind (read_once (inode_block t ino)) (inode_off ino) = kind_free then
      t.free_inodes <- ino :: t.free_inodes
  done;
  (* Directory scan: name cache + free dirent slots.  [bmap] without
     allocation or staging, over the root inode. *)
  let root = read_once (inode_block t root_ino) and off = inode_off root_ino in
  let slot container idx = if container = 0 then 0 else Codec.get_u32 (read_once container) (idx * 4) in
  let dir_block fbi =
    if fbi < ndirect then get_direct root off fbi
    else if fbi < ndirect + ptrs_per_block then slot (get_ind root off) (fbi - ndirect)
    else
      let rel = fbi - ndirect - ptrs_per_block in
      slot (slot (get_dind root off) (rel / ptrs_per_block)) (rel mod ptrs_per_block)
  in
  let nents = get_size root off / dirent_size in
  for idx = nents - 1 downto 0 do
    match dir_block (idx / dirents_per_block) with
    | 0 -> t.free_dirents <- idx :: t.free_dirents
    | blkno ->
        let b = read_once blkno in
        let off = idx mod dirents_per_block * dirent_size in
        let name_len = Codec.get_u8 b (off + 5) in
        if name_len = 0 then t.free_dirents <- idx :: t.free_dirents
        else begin
          let name = Bytes.sub_string b (off + 6) name_len in
          Hashtbl.replace t.names name (Codec.get_u32 b off);
          Hashtbl.replace t.dirent_of name idx
        end
  done;
  t

(* --- file operations -------------------------------------------------------- *)

let exists t name = Hashtbl.mem t.names name

let lookup t name =
  match Hashtbl.find_opt t.names name with
  | Some ino -> ino
  | None -> raise (No_such_file name)

let create t name =
  if exists t name then raise (File_exists name);
  let ino =
    match t.free_inodes with
    | [] -> raise No_space
    | ino :: rest ->
        t.free_inodes <- rest;
        ino
  in
  t.tick <- t.tick + 1;
  with_inode t ino (fun b off ->
      Bytes.fill b off inode_size '\000';
      set_kind b off kind_file;
      set_size b off 0;
      set_mtime b off t.tick);
  let dirent_idx =
    match t.free_dirents with
    | idx :: rest ->
        t.free_dirents <- rest;
        idx
    | [] -> (
        match grow_directory t with
        | idx :: rest ->
            t.free_dirents <- rest;
            idx
        | [] -> raise No_space)
  in
  write_dirent t dirent_idx ~ino ~name;
  Hashtbl.replace t.names name ino;
  Hashtbl.replace t.dirent_of name dirent_idx;
  maybe_commit t

let size t name = inode_peek t (lookup t name) (fun b off -> get_size b off)

let pwrite t name ~off data =
  let ino = lookup t name in
  let len = Bytes.length data in
  if len > 0 then begin
    t.tick <- t.tick + 1;
    let first = off / bs and last = (off + len - 1) / bs in
    for fbi = first to last do
      let blkno = bmap t ino fbi ~alloc:true in
      let blk_start = fbi * bs in
      let copy_from = max off blk_start in
      let copy_to = min (off + len) (blk_start + bs) in
      let b =
        if copy_from = blk_start && copy_to = blk_start + bs then Bytes.create bs
        else read_blk t blkno
      in
      Bytes.blit data (copy_from - off) b (copy_from - blk_start) (copy_to - copy_from);
      stage ~data:true t blkno b
    done;
    with_inode t ino (fun b ioff ->
        if off + len > get_size b ioff then set_size b ioff (off + len);
        set_mtime b ioff t.tick);
    maybe_commit t
  end

let pread t name ~off ~len =
  let ino = lookup t name in
  let out = Bytes.make len '\000' in
  if len > 0 then begin
    let first = off / bs and last = (off + len - 1) / bs in
    for fbi = first to last do
      let blkno = bmap t ino fbi ~alloc:false in
      if blkno <> 0 then begin
        let b = read_blk t blkno in
        let blk_start = fbi * bs in
        let copy_from = max off blk_start in
        let copy_to = min (off + len) (blk_start + bs) in
        Bytes.blit b (copy_from - blk_start) out (copy_from - off) (copy_to - copy_from)
      end
    done
  end;
  out

let append t name data = pwrite t name ~off:(size t name) data

let delete t name =
  let ino = lookup t name in
  (* Free all mapped blocks, including indirection blocks. *)
  let free_ptr_block blkno depth =
    let rec go blkno depth =
      if blkno <> 0 then begin
        if depth > 0 then begin
          let b = peek_meta t blkno in
          for i = 0 to ptrs_per_block - 1 do
            go (Codec.get_u32 b (i * 4)) (depth - 1)
          done
        end;
        free_data t blkno
      end
    in
    go blkno depth
  in
  t.tick <- t.tick + 1;
  with_inode t ino (fun b off ->
      for i = 0 to ndirect - 1 do
        let blk = get_direct b off i in
        if blk <> 0 then free_data t blk
      done;
      free_ptr_block (get_ind b off) 1;
      free_ptr_block (get_dind b off) 2;
      Bytes.fill b off inode_size '\000');
  t.free_inodes <- ino :: t.free_inodes;
  let dirent_idx = Hashtbl.find t.dirent_of name in
  clear_dirent t dirent_idx;
  t.free_dirents <- dirent_idx :: t.free_dirents;
  Hashtbl.remove t.names name;
  Hashtbl.remove t.dirent_of name;
  maybe_commit t

let rename t old_name new_name =
  let ino = lookup t old_name in
  if exists t new_name then raise (File_exists new_name);
  if String.length new_name > max_name || new_name = "" then invalid_arg "Fs: bad file name";
  let dirent_idx = Hashtbl.find t.dirent_of old_name in
  t.tick <- t.tick + 1;
  write_dirent t dirent_idx ~ino ~name:new_name;
  Hashtbl.remove t.names old_name;
  Hashtbl.remove t.dirent_of old_name;
  Hashtbl.replace t.names new_name ino;
  Hashtbl.replace t.dirent_of new_name dirent_idx;
  maybe_commit t

let truncate t name new_size =
  if new_size < 0 then invalid_arg "Fs.truncate: negative size";
  let ino = lookup t name in
  let old_size = inode_peek t ino (fun b off -> get_size b off) in
  t.tick <- t.tick + 1;
  if new_size < old_size then begin
    (* Zero the tail of the boundary block (POSIX: bytes between the new
       EOF and the block edge must read as zeros if the file grows
       again). *)
    (if new_size mod bs <> 0 then
       let blkno = bmap t ino (new_size / bs) ~alloc:false in
       if blkno <> 0 then begin
         let b = read_blk t blkno in
         Bytes.fill b (new_size mod bs) (bs - (new_size mod bs)) '\000';
         stage ~data:true t blkno b
       end);
    (* First file-block index that must go away. *)
    let first_dead = (new_size + bs - 1) / bs in
    (* Free one pointer tree: depth 0 = data, 1 = indirect, 2 = double
       indirect; [base] is the file-block index of the subtree's first
       leaf, [span] the leaves it covers.  Returns true when the whole
       subtree was freed (so the parent pointer can be cleared). *)
    let rec prune blkno depth base span =
      if blkno = 0 then true
      else if base >= first_dead then begin
        (* Entire subtree dead. *)
        if depth > 0 then begin
          let b = peek_meta t blkno in
          let child_span = span / ptrs_per_block in
          for i = 0 to ptrs_per_block - 1 do
            ignore (prune (Codec.get_u32 b (i * 4)) (depth - 1) (base + (i * child_span)) child_span)
          done
        end;
        free_data t blkno;
        true
      end
      else if base + span <= first_dead then false (* untouched *)
      else begin
        (* Straddles the cut: recurse and clear dead child pointers. *)
        let b = read_meta t blkno in
        let child_span = span / ptrs_per_block in
        let changed = ref false in
        for i = 0 to ptrs_per_block - 1 do
          let child = Codec.get_u32 b (i * 4) in
          if child <> 0 && prune child (depth - 1) (base + (i * child_span)) child_span then begin
            Codec.set_u32 b (i * 4) 0;
            changed := true
          end
        done;
        if !changed then stage t blkno b;
        false
      end
    in
    with_inode t ino (fun b off ->
        for i = 0 to ndirect - 1 do
          let blk = get_direct b off i in
          if blk <> 0 && i >= first_dead then begin
            free_data t blk;
            set_direct b off i 0
          end
        done;
        let ind = get_ind b off in
        if ind <> 0 && prune ind 1 ndirect ptrs_per_block then set_ind b off 0;
        let dind = get_dind b off in
        if
          dind <> 0
          && prune dind 2 (ndirect + ptrs_per_block) (ptrs_per_block * ptrs_per_block)
        then set_dind b off 0;
        set_size b off new_size;
        set_mtime b off t.tick)
  end
  else
    with_inode t ino (fun b off ->
        set_size b off new_size;
        set_mtime b off t.tick);
  maybe_commit t

let list_files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.names [] |> List.sort String.compare

let file_count t = Hashtbl.length t.names

let meta_reads t = t.meta_reads
let data_reads t = t.data_reads

(* --- fsck --------------------------------------------------------------------- *)

let fsck t =
  let fail fmt = Printf.ksprintf failwith ("fsck: " ^^ fmt) in
  let sb = peek_meta t 0 in
  if not (Int64.equal (Codec.get_u64 sb 0) magic) then fail "bad superblock magic";
  let claimed = Hashtbl.create 1024 in
  let claim blkno who =
    if blkno < t.geo.data_start || blkno >= t.geo.journal_start then
      fail "block %d (%s) outside data region" blkno who;
    (match Hashtbl.find_opt claimed blkno with
    | Some other -> fail "block %d claimed by both %s and %s" blkno who other
    | None -> ());
    Hashtbl.replace claimed blkno who;
    if not (bit_get t.bitmap (blkno - t.geo.data_start)) then
      fail "block %d (%s) not marked in bitmap" blkno who
  in
  (* claim a pointer tree: depth 0 = data block, depth 1 = indirect
     block over data, depth 2 = double indirect. *)
  let rec walk_tree blkno depth who =
    if blkno <> 0 then begin
      claim blkno who;
      if depth > 0 then begin
        let pb = peek_meta t blkno in
        for i = 0 to ptrs_per_block - 1 do
          walk_tree (Codec.get_u32 pb (i * 4)) (depth - 1) who
        done
      end
    end
  in
  let walk_inode ino who =
    inode_peek t ino (fun b off ->
        for i = 0 to ndirect - 1 do
          walk_tree (get_direct b off i) 0 who
        done;
        walk_tree (get_ind b off) 1 who;
        walk_tree (get_dind b off) 2 who)
  in
  (* Root directory first. *)
  if inode_peek t root_ino (fun b off -> get_kind b off) <> kind_dir then
    fail "root inode is not a directory";
  walk_inode root_ino "rootdir";
  (* Directory entries point at live file inodes. *)
  Hashtbl.iter
    (fun name ino ->
      if ino <= 0 || ino >= t.cfg.ninodes then fail "dirent %s -> bad inode %d" name ino;
      let kind = inode_peek t ino (fun b off -> get_kind b off) in
      if kind <> kind_file then fail "dirent %s -> inode %d of kind %d" name ino kind;
      walk_inode ino name)
    t.names;
  (* Bitmap agreement: every set bit must be claimed. *)
  for bit = 0 to t.geo.data_blocks - 1 do
    let set = bit_get t.bitmap bit in
    let used = Hashtbl.mem claimed (t.geo.data_start + bit) in
    if set && not used then fail "bitmap leak at data bit %d" bit;
    if used && not set then fail "bitmap lost block at data bit %d" bit
  done
