(* Tests of the Ext4-like file system over all three stack backends, plus
   end-to-end crash-consistency tests of FS-on-Tinca. *)
open Tinca_sim
module Fs = Tinca_fs.Fs
module Stacks = Tinca_stacks.Stacks
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

let nvm_bytes = 2 * 1024 * 1024
let disk_blocks = 8192

let fs_config = { Fs.default_config with ninodes = 512; journal_len = 256 }

let make_stack ?(disk_blocks = disk_blocks) ?(journal_len = fs_config.Fs.journal_len) kind =
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
  match kind with
  | `Tinca -> Stacks.tinca env
  | `Classic -> Stacks.classic ~journal_len env
  | `Nojournal -> Stacks.nojournal env
  | `Ubj -> Stacks.ubj env

let kind_name = function
  | `Tinca -> "tinca"
  | `Classic -> "classic"
  | `Nojournal -> "nojournal"
  | `Ubj -> "ubj"

let every_kind = [ `Tinca; `Classic; `Nojournal; `Ubj ]

let mk kind =
  let stack = make_stack kind in
  let journaled = kind <> `Nojournal in
  let fs = Fs.format ~config:{ fs_config with journaled } stack.Stacks.backend in
  (fs, stack)

let pattern n c = Bytes.make n c

let each_backend f () = List.iter (fun kind -> f (mk kind)) [ `Tinca; `Classic; `Nojournal ]

let test_create_write_read (fs, _) =
  Fs.create fs "hello.txt";
  Fs.pwrite fs "hello.txt" ~off:0 (Bytes.of_string "hello, tinca!");
  Fs.fsync fs;
  Alcotest.(check string) "read back" "hello, tinca!"
    (Bytes.to_string (Fs.pread fs "hello.txt" ~off:0 ~len:13));
  Alcotest.(check int) "size" 13 (Fs.size fs "hello.txt");
  Fs.fsck fs

let test_sparse_and_eof (fs, _) =
  Fs.create fs "sparse";
  Fs.pwrite fs "sparse" ~off:100_000 (Bytes.of_string "end");
  Alcotest.(check int) "size" 100_003 (Fs.size fs "sparse");
  (* The hole reads as zeros. *)
  Alcotest.(check string) "hole" (String.make 4 '\000')
    (Bytes.to_string (Fs.pread fs "sparse" ~off:50_000 ~len:4));
  Alcotest.(check string) "tail" "end" (Bytes.to_string (Fs.pread fs "sparse" ~off:100_000 ~len:3));
  (* Reads beyond EOF are zeros. *)
  Alcotest.(check string) "beyond eof" (String.make 2 '\000')
    (Bytes.to_string (Fs.pread fs "sparse" ~off:200_000 ~len:2));
  Fs.fsck fs

let test_overwrite_partial (fs, _) =
  Fs.create fs "f";
  Fs.pwrite fs "f" ~off:0 (pattern 10000 'a');
  Fs.pwrite fs "f" ~off:5000 (pattern 100 'b');
  let out = Fs.pread fs "f" ~off:4999 ~len:102 in
  Alcotest.(check char) "before" 'a' (Bytes.get out 0);
  Alcotest.(check char) "mid" 'b' (Bytes.get out 1);
  Alcotest.(check char) "mid end" 'b' (Bytes.get out 100);
  Alcotest.(check char) "after" 'a' (Bytes.get out 101);
  Alcotest.(check int) "size unchanged" 10000 (Fs.size fs "f");
  Fs.fsck fs

let test_append (fs, _) =
  Fs.create fs "log";
  Fs.append fs "log" (Bytes.of_string "one");
  Fs.append fs "log" (Bytes.of_string "two");
  Alcotest.(check string) "appended" "onetwo" (Bytes.to_string (Fs.pread fs "log" ~off:0 ~len:6))

let test_large_file_indirect (fs, _) =
  (* 12 direct blocks = 48 KB; this file needs single-indirect blocks. *)
  Fs.create fs "big";
  Fs.pwrite fs "big" ~off:0 (pattern 300_000 'z');
  Fs.fsync fs;
  Alcotest.(check char) "direct part" 'z' (Bytes.get (Fs.pread fs "big" ~off:1000 ~len:1) 0);
  Alcotest.(check char) "indirect part" 'z' (Bytes.get (Fs.pread fs "big" ~off:250_000 ~len:1) 0);
  Fs.fsck fs

let test_double_indirect (fs, _) =
  (* Beyond 12 + 1024 blocks (= 4,243,456 bytes) needs double indirect. *)
  Fs.create fs "huge";
  let off = (12 + 1024 + 5) * 4096 in
  Fs.pwrite fs "huge" ~off (Bytes.of_string "deep");
  Fs.fsync fs;
  Alcotest.(check string) "double indirect" "deep" (Bytes.to_string (Fs.pread fs "huge" ~off ~len:4));
  Fs.fsck fs

let test_delete_frees_space (fs, _) =
  Fs.create fs "a";
  Fs.pwrite fs "a" ~off:0 (pattern 100_000 'x');
  Fs.fsync fs;
  Fs.delete fs "a";
  Fs.fsync fs;
  Alcotest.(check bool) "gone" false (Fs.exists fs "a");
  Fs.fsck fs;
  (* Space must be reusable: create enough files to reuse it. *)
  Fs.create fs "b";
  Fs.pwrite fs "b" ~off:0 (pattern 100_000 'y');
  Fs.fsync fs;
  Fs.fsck fs

let test_many_files (fs, _) =
  for i = 0 to 199 do
    let name = Printf.sprintf "file%03d" i in
    Fs.create fs name;
    Fs.pwrite fs name ~off:0 (pattern 512 (Char.chr (33 + (i mod 90))))
  done;
  Fs.fsync fs;
  Alcotest.(check int) "count" 200 (Fs.file_count fs);
  Alcotest.(check int) "listing" 200 (List.length (Fs.list_files fs));
  for i = 0 to 199 do
    let name = Printf.sprintf "file%03d" i in
    Alcotest.(check char) name
      (Char.chr (33 + (i mod 90)))
      (Bytes.get (Fs.pread fs name ~off:0 ~len:1) 0)
  done;
  Fs.fsck fs

let test_create_delete_churn (fs, _) =
  for round = 0 to 4 do
    for i = 0 to 49 do
      Fs.create fs (Printf.sprintf "r%d_%d" round i);
      Fs.pwrite fs (Printf.sprintf "r%d_%d" round i) ~off:0 (pattern 8192 'c')
    done;
    for i = 0 to 49 do
      if i mod 2 = 0 then Fs.delete fs (Printf.sprintf "r%d_%d" round i)
    done;
    Fs.fsync fs
  done;
  Fs.fsck fs;
  Alcotest.(check int) "survivors" (5 * 25) (Fs.file_count fs)

let test_errors (fs, _) =
  Fs.create fs "dup";
  Alcotest.(check bool) "create twice" true
    (try
       Fs.create fs "dup";
       false
     with Fs.File_exists _ -> true);
  Alcotest.(check bool) "missing file" true
    (try
       ignore (Fs.pread fs "ghost" ~off:0 ~len:1);
       false
     with Fs.No_such_file _ -> true);
  Alcotest.(check bool) "long name" true
    (try
       Fs.create fs (String.make 100 'n');
       false
     with Invalid_argument _ -> true)

let test_mount_rebuilds (fs_and_stack : Fs.t * Stacks.t) =
  let fs, stack = fs_and_stack in
  Fs.create fs "persisted";
  Fs.pwrite fs "persisted" ~off:0 (Bytes.of_string "still here");
  Fs.fsync fs;
  (* Re-mount on the same backend: DRAM caches must rebuild from media. *)
  let journaled = Fs.journal_len fs > 0 in
  ignore journaled;
  let fs2 = Fs.mount ~config:{ fs_config with journaled = true } stack.Stacks.backend in
  Alcotest.(check bool) "exists after mount" true (Fs.exists fs2 "persisted");
  Alcotest.(check string) "content after mount" "still here"
    (Bytes.to_string (Fs.pread fs2 "persisted" ~off:0 ~len:10));
  Fs.fsck fs2

(* Mount reads the superblock, the bitmap, each inode-table block and
   each directory block (and pointer block) once, straight through a
   counting backend, and stages nothing: the next fsync has nothing to
   commit.  At 64 inodes that is 1 + 1 + 2 + 1 = 5 reads. *)
let test_mount_reads_each_block_once () =
  let check ~ninodes ~files ~expect =
    let stack = make_stack `Tinca in
    let config = { fs_config with ninodes } in
    let fs = Fs.format ~config stack.Stacks.backend in
    for i = 1 to files do
      Fs.create fs (Printf.sprintf "f%d" i)
    done;
    Fs.delete fs "f2";
    Fs.fsync fs;
    let reads = ref 0 in
    let backend =
      {
        stack.Stacks.backend with
        Tinca_fs.Backend.read_block =
          (fun blkno ->
            incr reads;
            stack.Stacks.backend.Tinca_fs.Backend.read_block blkno);
      }
    in
    let fs2 = Fs.mount ~config backend in
    let what = Printf.sprintf "%d inodes, %d files" ninodes files in
    Alcotest.(check int) (what ^ ": backend reads") expect !reads;
    Alcotest.(check int) (what ^ ": nothing staged") 0 (Fs.dirty_blocks fs2);
    Alcotest.(check bool) (what ^ ": deleted file gone") false (Fs.exists fs2 "f2");
    Alcotest.(check bool) (what ^ ": last file found") true (Fs.exists fs2 (Printf.sprintf "f%d" files));
    Fs.fsck fs2;
    (* The rebuilt free lists hand out the deleted file's inode and
       directory entry again. *)
    Fs.create fs2 "again";
    Fs.fsck fs2
  in
  check ~ninodes:64 ~files:3 ~expect:5;
  (* 900 entries fill 15 directory blocks, the last 3 behind the
     indirect block: 1 superblock + 1 bitmap + 32 inode-table blocks +
     15 directory blocks + 1 indirect block. *)
  check ~ninodes:1024 ~files:900 ~expect:50

(* A backend that records every block list it is asked to commit or
   write, newest first. *)
let recording (backend : Tinca_fs.Backend.t) =
  let calls = ref [] in
  let record f blocks =
    calls := blocks :: !calls;
    f blocks
  in
  ( {
      backend with
      Tinca_fs.Backend.commit_blocks = record backend.Tinca_fs.Backend.commit_blocks;
      write_blocks = record backend.Tinca_fs.Backend.write_blocks;
    },
    calls )

(* Reads look blocks up without staging anything, at every level of the
   block map, so an fsync after preads alone has nothing to commit. *)
let test_pread_commits_nothing () =
  List.iter
    (fun kind ->
      let name = kind_name kind in
      let backend, calls = recording (make_stack kind).Stacks.backend in
      let fs = Fs.format ~config:{ fs_config with journaled = kind <> `Nojournal } backend in
      Fs.create fs "r";
      (* A direct, a single-indirect and a double-indirect block. *)
      List.iter (fun fbi -> Fs.pwrite fs "r" ~off:(fbi * 4096) (pattern 4096 'r')) [ 0; 20; 2000 ];
      Fs.fsync fs;
      calls := [];
      (* Mapped blocks, holes at each level and blocks past EOF. *)
      List.iter
        (fun fbi -> ignore (Fs.pread fs "r" ~off:(fbi * 4096) ~len:4096))
        [ 0; 5; 20; 21; 2000; 2001; 5000 ];
      Alcotest.(check int) (name ^ ": size") (2001 * 4096) (Fs.size fs "r");
      Alcotest.(check int) (name ^ ": nothing staged") 0 (Fs.dirty_blocks fs);
      Fs.fsync fs;
      Alcotest.(check int) (name ^ ": no backend commit") 0 (List.length !calls))
    every_kind

(* The metadata table against block reuse.  A file's double-indirect
   pointer block D is freed (by [delete] or [truncate]) and reallocated
   as file data, in the same fsync or a later one; the data reads back,
   fsck passes, and a crash after the fsync (a remount on UBJ, which has
   no recovery) gives the same contents.  The geometry makes D the
   lowest free block when the allocator wraps: 512 blocks, 64 of them
   journal, leave 444 data blocks; the root directory and a filler file
   (439 data blocks and its indirect block) take the first 441, and the
   file's D, its level-1 block and its data block the last three. *)
let test_meta_table_block_reuse () =
  let cfg = { fs_config with ninodes = 64; journal_len = 64 } in
  let filler = 439 in
  let run kind ~free ~same_fsync =
    let what =
      Printf.sprintf "%s, %s, %s fsync" (kind_name kind)
        (match free with `Delete -> "delete" | `Truncate -> "truncate")
        (if same_fsync then "same" else "later")
    in
    let stack = make_stack ~disk_blocks:512 ~journal_len:64 kind in
    let env = stack.Stacks.env in
    let backend, calls = recording stack.Stacks.backend in
    let config = { cfg with journaled = kind <> `Nojournal } in
    let fs = Fs.format ~config backend in
    Fs.create fs "filler";
    (* In chunks that fit the 64-block journal. *)
    for chunk = 0 to (filler - 1) / 32 do
      let first = chunk * 32 in
      let n = min 32 (filler - first) in
      Fs.pwrite fs "filler" ~off:(first * 4096) (pattern (n * 4096) 'f');
      Fs.fsync fs
    done;
    Fs.create fs "a";
    Fs.pwrite fs "a" ~off:(1036 * 4096) (pattern 4096 'a');
    Fs.fsync fs;
    (* D is the block whose first pointer names the block whose first
       pointer names the data block. *)
    let committed = List.hd !calls in
    let pointing_at target =
      fst (List.find (fun (_, b) -> Tinca_util.Codec.get_u32 b 0 = target) committed)
    in
    let x = fst (List.find (fun (_, b) -> Bytes.equal b (pattern 4096 'a')) committed) in
    let d = pointing_at (pointing_at x) in
    let data_file =
      match free with
      | `Delete ->
          Fs.delete fs "a";
          "b"
      | `Truncate ->
          Fs.truncate fs "a" 0;
          "a"
    in
    if not same_fsync then Fs.fsync fs;
    if not (Fs.exists fs data_file) then Fs.create fs data_file;
    Fs.pwrite fs data_file ~off:0 (pattern 4096 'b');
    Fs.fsync fs;
    Alcotest.(check bool) (what ^ ": D committed as the data") true
      (List.exists (fun (blkno, b) -> blkno = d && Bytes.equal b (pattern 4096 'b')) (List.hd !calls));
    let check fs when_ =
      let what = what ^ when_ in
      Fs.fsck fs;
      Alcotest.(check string) (what ^ ": data") (String.make 4096 'b')
        (Bytes.to_string (Fs.pread fs data_file ~off:0 ~len:4096));
      Alcotest.(check int) (what ^ ": size") 4096 (Fs.size fs data_file);
      Alcotest.(check bool) (what ^ ": a gone") (free = `Delete) (not (Fs.exists fs "a"));
      List.iter
        (fun fbi ->
          Alcotest.(check char) (what ^ ": filler") 'f'
            (Bytes.get (Fs.pread fs "filler" ~off:(fbi * 4096) ~len:1) 0))
        [ 0; 12; filler - 1 ]
    in
    check fs "";
    let crash () = Pmem.crash ~seed:7 ~survival:0.5 env.Stacks.pmem in
    let remounted =
      match kind with
      | `Ubj -> stack
      | `Tinca ->
          crash ();
          Stacks.tinca_recover env
      | `Classic ->
          crash ();
          Stacks.classic_recover ~journal_len:64 env
      | `Nojournal ->
          crash ();
          Stacks.nojournal_recover env
    in
    check (Fs.mount ~config remounted.Stacks.backend) " after the crash"
  in
  List.iter
    (fun kind ->
      List.iter
        (fun free -> List.iter (fun same_fsync -> run kind ~free ~same_fsync) [ true; false ])
        [ `Delete; `Truncate ])
    every_kind

let test_auto_commit_threshold () =
  let stack = make_stack `Tinca in
  let fs =
    Fs.format ~config:{ fs_config with max_dirty_blocks = 8 } stack.Stacks.backend
  in
  Fs.create fs "auto";
  (* 64 KB = 16 data blocks: must cross the 8-block threshold and
     auto-commit at least once. *)
  Fs.pwrite fs "auto" ~off:0 (pattern 65536 'q');
  Alcotest.(check bool) "auto-committed" true (Fs.dirty_blocks fs < 16);
  Alcotest.(check bool) "tinca commits happened" true
    (Metrics.get stack.Stacks.env.Stacks.metrics "tinca.commits" > 0)

(* --- FS-level crash consistency over Tinca ------------------------------- *)

let test_fs_crash_consistency () =
  (* fsync'd state must survive a crash; the trailing unsynced op may be
     fully present or fully absent (it was one transaction), never torn. *)
  for seed = 1 to 10 do
    let env = Stacks.make_env ~seed ~nvm_bytes ~disk_blocks () in
    let stack = Stacks.tinca env in
    let fs = Fs.format ~config:fs_config stack.Stacks.backend in
    Fs.create fs "a";
    Fs.pwrite fs "a" ~off:0 (pattern 20_000 'A');
    Fs.create fs "b";
    Fs.pwrite fs "b" ~off:0 (pattern 9_000 'B');
    Fs.fsync fs;
    (* Unsynced tail work. *)
    Fs.create fs "c";
    Fs.pwrite fs "c" ~off:0 (pattern 5_000 'C');
    (* Crash without fsync. *)
    Pmem.crash ~seed:(seed * 101) ~survival:0.5 env.Stacks.pmem;
    let stack2 = Stacks.tinca_recover env in
    let fs2 = Fs.mount ~config:fs_config stack2.Stacks.backend in
    Fs.fsck fs2;
    Alcotest.(check bool) "a exists" true (Fs.exists fs2 "a");
    Alcotest.(check bool) "b exists" true (Fs.exists fs2 "b");
    Alcotest.(check char) "a content" 'A' (Bytes.get (Fs.pread fs2 "a" ~off:19_000 ~len:1) 0);
    Alcotest.(check char) "b content" 'B' (Bytes.get (Fs.pread fs2 "b" ~off:8_000 ~len:1) 0);
    (* c was never synced and its blocks never hit a commit: gone. *)
    Alcotest.(check bool) "c rolled back" false (Fs.exists fs2 "c")
  done

let test_fs_crash_mid_commit () =
  (* Inject the crash inside the commit itself: the synced prefix must
     survive; the in-flight transaction is all-or-nothing. *)
  for countdown = 1 to 40 do
    let env = Stacks.make_env ~seed:countdown ~nvm_bytes ~disk_blocks () in
    let stack = Stacks.tinca env in
    let fs = Fs.format ~config:fs_config stack.Stacks.backend in
    Fs.create fs "stable";
    Fs.pwrite fs "stable" ~off:0 (pattern 10_000 'S');
    Fs.fsync fs;
    Fs.create fs "victim";
    Fs.pwrite fs "victim" ~off:0 (pattern 10_000 'V');
    Pmem.set_crash_countdown env.Stacks.pmem (Some countdown);
    let crashed = try Fs.fsync fs; false with Pmem.Crash_point -> true in
    Pmem.crash ~seed:(countdown * 7) ~survival:0.5 env.Stacks.pmem;
    let stack2 = Stacks.tinca_recover env in
    let fs2 = Fs.mount ~config:fs_config stack2.Stacks.backend in
    Fs.fsck fs2;
    Alcotest.(check bool) "stable exists" true (Fs.exists fs2 "stable");
    Alcotest.(check char) "stable content" 'S' (Bytes.get (Fs.pread fs2 "stable" ~off:9_000 ~len:1) 0);
    (* All-or-nothing for the victim transaction. *)
    if Fs.exists fs2 "victim" then begin
      Alcotest.(check int) "victim size" 10_000 (Fs.size fs2 "victim");
      Alcotest.(check char) "victim content" 'V' (Bytes.get (Fs.pread fs2 "victim" ~off:9_999 ~len:1) 0)
    end;
    ignore crashed
  done

let test_fs_crash_classic_journal_replay () =
  (* The Classic stack achieves the same consistency via journal replay:
     commit the journal, crash with survival 1.0 (pure process-kill:
     everything stored reaches NVM), replay, verify. *)
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
  let stack = Stacks.classic ~journal_len:fs_config.Fs.journal_len env in
  let fs = Fs.format ~config:fs_config stack.Stacks.backend in
  Fs.create fs "j";
  Fs.pwrite fs "j" ~off:0 (pattern 6_000 'J');
  Fs.fsync fs;
  Pmem.crash ~seed:3 ~survival:1.0 env.Stacks.pmem;
  let stack2 = Stacks.classic_recover ~journal_len:fs_config.Fs.journal_len env in
  let fs2 = Fs.mount ~config:fs_config stack2.Stacks.backend in
  Fs.fsck fs2;
  Alcotest.(check char) "replayed" 'J' (Bytes.get (Fs.pread fs2 "j" ~off:5_000 ~len:1) 0)

let prop_fs_random_ops =
  QCheck.Test.make ~name:"fs: random op sequences keep fsck clean" ~count:20
    QCheck.(list_of_size Gen.(int_range 1 40) (triple (int_bound 2) (int_bound 9) (int_bound 30)))
    (fun ops ->
      let fs, _ = mk `Tinca in
      let name i = Printf.sprintf "f%d" i in
      List.iter
        (fun (op, i, blocks) ->
          match op with
          | 0 -> if not (Fs.exists fs (name i)) then Fs.create fs (name i)
          | 1 ->
              if Fs.exists fs (name i) then
                Fs.pwrite fs (name i) ~off:(blocks * 100) (pattern ((blocks * 137) + 1) 'p')
          | _ -> if Fs.exists fs (name i) then Fs.delete fs (name i))
        ops;
      Fs.fsync fs;
      Fs.fsck fs;
      true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  let on_all name f = Alcotest.test_case name `Quick (each_backend f) in
  [
    ( "fs.ops",
      [
        on_all "create/write/read" test_create_write_read;
        on_all "sparse + EOF" test_sparse_and_eof;
        on_all "partial overwrite" test_overwrite_partial;
        on_all "append" test_append;
        on_all "indirect blocks" test_large_file_indirect;
        on_all "double indirect" test_double_indirect;
        on_all "delete frees space" test_delete_frees_space;
        on_all "many files" test_many_files;
        on_all "create/delete churn" test_create_delete_churn;
        on_all "errors" test_errors;
        on_all "mount rebuilds caches" test_mount_rebuilds;
        Alcotest.test_case "mount reads each block once" `Quick test_mount_reads_each_block_once;
        Alcotest.test_case "preads commit nothing" `Quick test_pread_commits_nothing;
        Alcotest.test_case "metadata table survives block reuse" `Quick test_meta_table_block_reuse;
        Alcotest.test_case "auto-commit threshold" `Quick test_auto_commit_threshold;
        q prop_fs_random_ops;
      ] );
    ( "fs.crash",
      [
        Alcotest.test_case "fsync durability over Tinca" `Quick test_fs_crash_consistency;
        Alcotest.test_case "crash mid-commit over Tinca" `Slow test_fs_crash_mid_commit;
        Alcotest.test_case "classic journal replay" `Quick test_fs_crash_classic_journal_replay;
      ] );
  ]

(* --- ordered journaling mode --- *)

let test_ordered_mode_works () =
  let stack = make_stack `Classic in
  let fs = Fs.format ~config:{ fs_config with journaled = true; ordered = true } stack.Stacks.backend in
  Fs.create fs "o";
  Fs.pwrite fs "o" ~off:0 (pattern 20_000 'o');
  Fs.fsync fs;
  Alcotest.(check char) "content" 'o' (Bytes.get (Fs.pread fs "o" ~off:19_000 ~len:1) 0);
  Fs.fsck fs

let test_ordered_journals_less () =
  (* Ordered mode must log only metadata: far fewer journal blocks than
     data=journal for the same writes. *)
  let logged ordered =
    let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
    let stack = Stacks.classic ~journal_len:fs_config.Fs.journal_len env in
    let fs = Fs.format ~config:{ fs_config with ordered } stack.Stacks.backend in
    Fs.create fs "f";
    for i = 0 to 19 do
      Fs.pwrite fs "f" ~off:(i * 100_000) (pattern 50_000 'x');
      Fs.fsync fs
    done;
    Tinca_sim.Metrics.get env.Stacks.metrics "jbd2.blocks_logged"
  in
  let journal = logged false and ordered = logged true in
  Alcotest.(check bool)
    (Printf.sprintf "ordered logs much less (%d vs %d)" ordered journal)
    true
    (ordered * 3 < journal)

let test_ordered_crash_keeps_structure () =
  (* After a crash, ordered mode guarantees fsck-clean structure (the
     paper's lower consistency level), even though data writes are not
     atomic. *)
  for seed = 1 to 6 do
    let env = Stacks.make_env ~seed ~nvm_bytes ~disk_blocks () in
    let stack = Stacks.tinca env in
    let cfg = { fs_config with ordered = true } in
    let fs = Fs.format ~config:cfg stack.Stacks.backend in
    Fs.create fs "base";
    Fs.pwrite fs "base" ~off:0 (pattern 30_000 'b');
    Fs.fsync fs;
    Tinca_pmem.Pmem.set_crash_countdown env.Stacks.pmem (Some (50 * seed));
    (try
       for i = 0 to 10 do
         Fs.pwrite fs "base" ~off:(i * 3000) (pattern 2500 'n');
         Fs.fsync fs
       done;
       Tinca_pmem.Pmem.set_crash_countdown env.Stacks.pmem None
     with Tinca_pmem.Pmem.Crash_point -> ());
    Tinca_pmem.Pmem.crash ~seed:(seed * 17) ~survival:0.5 env.Stacks.pmem;
    let stack2 = Stacks.tinca_recover env in
    let fs2 = Fs.mount ~config:cfg stack2.Stacks.backend in
    (* Structure intact; data content may legitimately be mixed old/new. *)
    Fs.fsck fs2;
    Alcotest.(check bool) "file survives" true (Fs.exists fs2 "base")
  done

let ordered_suite =
  [
    ( "fs.ordered",
      [
        Alcotest.test_case "ordered mode roundtrip" `Quick test_ordered_mode_works;
        Alcotest.test_case "ordered journals less" `Quick test_ordered_journals_less;
        Alcotest.test_case "ordered crash keeps structure" `Quick test_ordered_crash_keeps_structure;
      ] );
  ]

(* Exhaustive FS-level crash sweep over Tinca: a short workload of synced
   rounds, crashed at every 3rd NVM event across its whole span. *)
let test_fs_full_event_sweep () =
  let cfg = { fs_config with ninodes = 64 } in
  let workload fs synced =
    for round = 0 to 3 do
      let name = Printf.sprintf "s%d" round in
      Fs.create fs name;
      Fs.pwrite fs name ~off:0 (pattern 6_000 (Char.chr (65 + round)));
      Fs.fsync fs;
      synced := round + 1
    done
  in
  (* Measure the span. *)
  let span =
    let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
    let stack = Stacks.tinca env in
    let fs = Fs.format ~config:cfg stack.Stacks.backend in
    let e0 = Pmem.event_count env.Stacks.pmem in
    workload fs (ref 0);
    Pmem.event_count env.Stacks.pmem - e0
  in
  let crash_at = ref 1 in
  while !crash_at <= span do
    let env = Stacks.make_env ~seed:!crash_at ~nvm_bytes ~disk_blocks () in
    let stack = Stacks.tinca env in
    let fs = Fs.format ~config:cfg stack.Stacks.backend in
    let synced = ref 0 in
    Pmem.set_crash_countdown env.Stacks.pmem (Some !crash_at);
    (try
       workload fs synced;
       Pmem.set_crash_countdown env.Stacks.pmem None
     with Pmem.Crash_point -> ());
    Pmem.crash ~seed:(!crash_at * 13) ~survival:0.5 env.Stacks.pmem;
    let stack2 = Stacks.tinca_recover env in
    let fs2 = Fs.mount ~config:cfg stack2.Stacks.backend in
    Fs.fsck fs2;
    for round = 0 to !synced - 1 do
      let name = Printf.sprintf "s%d" round in
      if not (Fs.exists fs2 name) then Alcotest.failf "crash@%d: %s lost" !crash_at name;
      let data = Fs.pread fs2 name ~off:0 ~len:6_000 in
      Bytes.iter
        (fun c ->
          if c <> Char.chr (65 + round) then Alcotest.failf "crash@%d: %s corrupt" !crash_at name)
        data
    done;
    crash_at := !crash_at + 3
  done

let sweep_suite =
  [
    ( "fs.crash_sweep",
      [ Alcotest.test_case "exhaustive event sweep over tinca" `Slow test_fs_full_event_sweep ] );
  ]

(* --- DRAM page cache (paper Fig 1(c)'s buffer cache) --- *)

let test_page_cache_serves_reads () =
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
  let stack = Stacks.tinca env in
  let fs =
    Fs.format ~config:{ fs_config with page_cache_pages = 256 } stack.Stacks.backend
  in
  Fs.create fs "pc";
  Fs.pwrite fs "pc" ~off:0 (pattern 40_000 'p');
  Fs.fsync fs;
  (* First read may go to the cache layer; repeated reads must be
     absorbed by the DRAM page cache: NVM read traffic stops growing. *)
  ignore (Fs.pread fs "pc" ~off:0 ~len:40_000);
  let before = Metrics.get env.Stacks.metrics "pmem.read_lines" in
  for _ = 1 to 10 do
    ignore (Fs.pread fs "pc" ~off:0 ~len:40_000)
  done;
  let after = Metrics.get env.Stacks.metrics "pmem.read_lines" in
  Alcotest.(check int) "reads absorbed by DRAM" before after;
  Alcotest.(check char) "content correct" 'p' (Bytes.get (Fs.pread fs "pc" ~off:39_999 ~len:1) 0);
  Fs.fsck fs

let test_page_cache_coherent_with_writes () =
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
  let stack = Stacks.tinca env in
  let fs =
    Fs.format ~config:{ fs_config with page_cache_pages = 64 } stack.Stacks.backend
  in
  Fs.create fs "c";
  Fs.pwrite fs "c" ~off:0 (pattern 4096 'a');
  Fs.fsync fs;
  ignore (Fs.pread fs "c" ~off:0 ~len:4096);
  (* Overwrite, then read: must see the new content, not the cached page. *)
  Fs.pwrite fs "c" ~off:0 (pattern 4096 'b');
  Alcotest.(check char) "read-your-writes" 'b' (Bytes.get (Fs.pread fs "c" ~off:0 ~len:1) 0);
  Fs.fsync fs;
  Alcotest.(check char) "after fsync too" 'b' (Bytes.get (Fs.pread fs "c" ~off:0 ~len:1) 0);
  Fs.fsck fs

let test_page_cache_bounded () =
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
  let stack = Stacks.tinca env in
  let fs =
    Fs.format ~config:{ fs_config with page_cache_pages = 16 } stack.Stacks.backend
  in
  Fs.create fs "big";
  Fs.pwrite fs "big" ~off:0 (pattern (200 * 4096) 'z');
  Fs.fsync fs;
  (* Stream through far more blocks than the page cache holds. *)
  for i = 0 to 199 do
    ignore (Fs.pread fs "big" ~off:(i * 4096) ~len:4096)
  done;
  Alcotest.(check char) "content fine" 'z' (Bytes.get (Fs.pread fs "big" ~off:0 ~len:1) 0);
  Fs.fsck fs

let test_page_cache_crash_safe () =
  (* The page cache is volatile; crash + recovery must be unaffected. *)
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks () in
  let stack = Stacks.tinca env in
  let cfg = { fs_config with page_cache_pages = 128 } in
  let fs = Fs.format ~config:cfg stack.Stacks.backend in
  Fs.create fs "d";
  Fs.pwrite fs "d" ~off:0 (pattern 12_288 'd');
  Fs.fsync fs;
  ignore (Fs.pread fs "d" ~off:0 ~len:12_288);
  Pmem.crash ~seed:9 ~survival:0.5 env.Stacks.pmem;
  let stack2 = Stacks.tinca_recover env in
  let fs2 = Fs.mount ~config:cfg stack2.Stacks.backend in
  Fs.fsck fs2;
  Alcotest.(check char) "data survives" 'd' (Bytes.get (Fs.pread fs2 "d" ~off:12_000 ~len:1) 0)

let page_cache_suite =
  [
    ( "fs.page_cache",
      [
        Alcotest.test_case "serves repeated reads" `Quick test_page_cache_serves_reads;
        Alcotest.test_case "coherent with writes" `Quick test_page_cache_coherent_with_writes;
        Alcotest.test_case "bounded" `Quick test_page_cache_bounded;
        Alcotest.test_case "crash safe" `Quick test_page_cache_crash_safe;
      ] );
  ]
