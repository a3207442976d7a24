//! Figure 4: end-to-end trace correlation of a parallel HDF5 program.
//!
//! Two MPI ranks collectively write into one HDF5 file on BeeGFS; the
//! example prints the multi-layer trace (I/O library → MPI-IO → PFS
//! client → RPC → server-local POSIX) and queries the causality graph
//! the way ParaCrash's analysis does.
//!
//! ```sh
//! cargo run --release --example trace_analysis
//! ```

use h5sim::{H5File, H5Spec, H5Trace};
use mpiio::MpiIo;
use paracrash::Stack;
use tracer::{CausalityGraph, Layer};
use workloads::{FsKind, Params};

fn main() {
    let params = Params::quick();
    let mut stack = Stack::new(FsKind::BeeGfs.build(&params));
    let ranks = [0u32, 1];

    {
        let mut mpi = MpiIo::new(stack.pfs.as_mut(), &mut stack.rec, &mut stack.calls);
        let mut h5t = H5Trace::new();
        let mut file = H5File::create(&mut mpi, &mut h5t, &ranks, "/example.h5", H5Spec::default());
        file.create_group(&mut mpi, &mut h5t, 0, "results");
        // Collective create with both ranks writing (Figure 4's two
        // clients), then independent writes separated by a barrier.
        file.create_dataset_parallel(&mut mpi, &mut h5t, &ranks, "results", "grid", 16, 16);
        mpi.barrier(&ranks, None);
        stack.h5 = h5t;
    }

    println!("=== end-to-end trace ===");
    print!("{}", stack.rec.render());

    let graph = CausalityGraph::build(&stack.rec);
    println!("\n=== causality analysis ===");
    println!("events: {}", stack.rec.len());
    println!(
        "lowermost storage operations: {}",
        stack.rec.lowermost_events().len()
    );
    for layer in [Layer::IoLib, Layer::MpiIo, Layer::PfsClient, Layer::LocalFs] {
        println!(
            "  {:>12} layer events: {}",
            layer.to_string(),
            stack.rec.layer_events(layer).len()
        );
    }

    // How many of the lowermost operation pairs are concurrent — i.e.
    // free to reorder their persistence across servers?
    let low = stack.rec.lowermost_events();
    let mut concurrent = 0;
    let mut ordered = 0;
    for (i, &a) in low.iter().enumerate() {
        for &b in &low[i + 1..] {
            if graph.concurrent(a, b) {
                concurrent += 1;
            } else {
                ordered += 1;
            }
        }
    }
    println!("\nlowermost op pairs: {ordered} causally ordered, {concurrent} concurrent");
    let mut cuts = 0;
    graph.consistent_cuts(&low, &[], |_| cuts += 1);
    println!("consistent cuts of the lowermost level: {cuts}");
    println!(
        "\nThe concurrent pairs come from the collective create: rank 1 flushes the\n\
         group's local heap while rank 0 flushes the B-tree and symbol table — the\n\
         concurrency behind Table 3 bug 9."
    );
}
