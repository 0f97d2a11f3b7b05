//! Criterion microbenchmarks of the real hot paths: the code that
//! executes on every simulated I/O, where host performance actually
//! matters for how much simulated time the harnesses can cover.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bpfstor_btree::tree::{build_pages, step_on_page};
use bpfstor_btree::Node;
use bpfstor_core::{btree_lookup_program, pointer_chase_program, sst_get_program};
use bpfstor_fs::Extent;
use bpfstor_kernel::ExtentCache;
use bpfstor_lsm::sstable::{build_image, data_block_search, Footer, BLOCK};
use bpfstor_sim::{EventQueue, Histogram, SimRng};
use bpfstor_vm::{action, verify, DecodedProg, MapSet, Program, RecordingEnv, RunCtx, RunOutcome};
use bpfstor_workload::ZipfState;

/// Runs one hop of a decoded program over `block`, with the first bytes
/// of the chain scratch set to `scratch`.
fn run_hop(
    prog: &DecodedProg,
    maps: &mut MapSet,
    block: &[u8],
    scratch: &[u8],
) -> (RunOutcome, RecordingEnv) {
    let mut env = RecordingEnv::default();
    let mut scratch_buf = [0u8; 256];
    scratch_buf[..scratch.len()].copy_from_slice(scratch);
    let out = prog
        .run(
            RunCtx {
                data: black_box(block),
                file_off: 0,
                hop: 0,
                flags: 0,
                scratch: &mut scratch_buf,
            },
            maps,
            &mut env,
        )
        .expect("runs");
    (out, env)
}

/// Times one hop the way the kernel runs it: the program is decoded
/// once, outside the timed loop, as `Machine::install` does.
fn bench_hop(c: &mut Criterion, name: &str, prog: &Program, block: &[u8], scratch: &[u8]) {
    let decoded = DecodedProg::new(prog);
    let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
    c.bench_function(name, |b| {
        b.iter(|| black_box(run_hop(&decoded, &mut maps, block, scratch).0.insns))
    });
}

fn bench_vm_interpreter(c: &mut Criterion) {
    let mut block = vec![0u8; 512];
    block[..8].copy_from_slice(&4096u64.to_le_bytes());
    bench_hop(
        c,
        "vm_interp_chase_step",
        &pointer_chase_program(),
        &block,
        &[],
    );
}

fn bench_vm_btree_step(c: &mut Criterion) {
    let keys: Vec<u64> = (0..31).map(|i| i * 10).collect();
    let slots: Vec<u64> = (0..31).collect();
    let page = Node::new(1, keys, slots).encode();
    let scratch = lookup_key().to_le_bytes();
    bench_hop(
        c,
        "vm_interp_btree_node_search",
        &btree_lookup_program(),
        &page,
        &scratch,
    );
}

/// The SST program's index stage on a full index block: the hop a
/// fabric initiator's cold get spends most instructions in. The key lies
/// in the block's last data block, so the scan visits every entry.
fn bench_vm_sst_index_scan(c: &mut Criterion) {
    const VALUE_BYTES: u32 = 48;
    let entries: Vec<(u64, Vec<u8>)> = (0..400u64)
        .map(|i| (i * 3, vec![7u8; VALUE_BYTES as usize]))
        .collect();
    let image = build_image(&entries).expect("build");
    let footer = Footer::decode(&image[image.len() - BLOCK..]).expect("footer");
    let index_at = footer.data_blocks as usize * BLOCK;
    let block = &image[index_at..index_at + BLOCK];
    let nentries = u16::from_le_bytes([block[0], block[1]]);
    assert_eq!(nentries as usize, (BLOCK - 2) / 12, "a full index block");
    let mut scratch = [0u8; 40];
    let fields = [
        330 * 3,                        // key, in the block's last data block
        1,                              // stage: index block
        u64::MAX,                       // no candidate yet
        u64::from(footer.index_blocks), // index blocks remaining
        index_at as u64,                // this index block's offset
    ];
    for (i, v) in fields.iter().enumerate() {
        scratch[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    let prog = sst_get_program(VALUE_BYTES);
    // The scan ends on the last entry and walks on to the next index
    // block.
    let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
    let (out, env) = run_hop(&DecodedProg::new(&prog), &mut maps, block, &scratch);
    assert_eq!(out.ret, action::ACT_RESUBMIT);
    assert_eq!(env.resubmits, vec![index_at as u64 + BLOCK as u64]);
    assert!(out.insns > 10 * u64::from(nentries), "{out:?}");
    bench_hop(c, "vm_interp_sst_index_scan", &prog, block, &scratch);
}

// Keep the benchmark input constant without tripping const-folding.
fn lookup_key() -> u64 {
    black_box(155)
}

fn bench_verifier(c: &mut Criterion) {
    let prog = btree_lookup_program();
    c.bench_function("verifier_btree_program", |b| {
        b.iter(|| verify(black_box(&prog)).expect("accepts"))
    });
}

fn bench_btree_native(c: &mut Criterion) {
    let keys: Vec<u64> = (0..961u64).collect();
    let vals = keys.clone();
    let (pages, info) = build_pages(&keys, &vals, 31).expect("build");
    let root = pages[info.root_block as usize];
    c.bench_function("btree_native_step", |b| {
        b.iter(|| step_on_page(black_box(&root), black_box(555)).expect("step"))
    });
}

fn bench_extent_cache(c: &mut Criterion) {
    let mut cache = ExtentCache::new();
    let extents: Vec<Extent> = (0..64)
        .map(|i| Extent {
            logical: i * 100,
            physical: 10_000 + i * 128,
            len: 100,
        })
        .collect();
    cache.install(7, extents, 0);
    c.bench_function("extent_cache_lookup", |b| {
        let mut lb = 0u64;
        b.iter(|| {
            lb = (lb + 997) % 6_400;
            black_box(cache.lookup(7, black_box(lb)))
        })
    });
}

fn bench_sstable_search(c: &mut Criterion) {
    let entries: Vec<(u64, Vec<u8>)> = (0..18u64).map(|i| (i * 2, vec![7u8; 16])).collect();
    let image = build_image(&entries).expect("build");
    let block = &image[..512];
    c.bench_function("sstable_data_block_search", |b| {
        b.iter(|| data_block_search(black_box(block), black_box(20)).expect("search"))
    });
}

fn bench_sim_primitives(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop", |b| {
        let mut q = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 3;
            q.push(t, t);
            black_box(q.pop())
        })
    });
    c.bench_function("histogram_record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 40))
        })
    });
    c.bench_function("rng_next", |b| {
        let mut rng = SimRng::seed(1);
        b.iter(|| black_box(rng.next()))
    });
    c.bench_function("zipfian_sample", |b| {
        let mut z = ZipfState::new(1_000_000, 0.99);
        let mut rng = SimRng::seed(2);
        b.iter(|| black_box(z.sample(&mut rng, 1_000_000)))
    });
}

criterion_group!(
    benches,
    bench_vm_interpreter,
    bench_vm_btree_step,
    bench_vm_sst_index_scan,
    bench_verifier,
    bench_btree_native,
    bench_extent_cache,
    bench_sstable_search,
    bench_sim_primitives
);
criterion_main!(benches);
