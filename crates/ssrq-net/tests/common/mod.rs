//! The in-thread shard cluster the socket tests run against.

use ssrq_core::{GeoSocialDataset, GeoSocialEngine};
use ssrq_net::{Endpoint, RemoteShardedEngine, ShardServer};
use ssrq_shard::{Partitioning, ShardAssignment};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A cluster of in-thread shard servers over Unix sockets in a temp dir,
/// shut down and removed on drop.
pub struct Cluster {
    pub endpoints: Vec<Endpoint>,
    pub assignment: ShardAssignment,
    flags: Vec<Arc<AtomicBool>>,
    handles: Vec<JoinHandle<()>>,
    dir: PathBuf,
}

/// Numbers the temp dirs of one test process apart.
static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty temp dir named after `name` and this process.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ssrq-net-{name}-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

impl Cluster {
    /// Starts `shards` servers over `dataset` split by `policy`.
    pub fn start(dataset: &GeoSocialDataset, policy: Partitioning, shards: usize) -> Cluster {
        Cluster::start_with(dataset, policy, shards, |server| server)
    }

    /// [`Cluster::start`], with `configure` applied to every server before
    /// it serves.
    pub fn start_with(
        dataset: &GeoSocialDataset,
        policy: Partitioning,
        shards: usize,
        configure: impl Fn(ShardServer) -> ShardServer,
    ) -> Cluster {
        let assignment =
            ShardAssignment::compute(dataset, policy, shards).expect("assignment computes");
        let owner = assignment.owners(dataset);
        let dir = temp_dir("cluster");
        let mut endpoints = Vec::new();
        let mut flags = Vec::new();
        let mut handles = Vec::new();
        for s in 0..shards {
            let shard_dataset = dataset.restrict_locations(|u| owner[u as usize] as usize == s);
            let engine = GeoSocialEngine::builder(shard_dataset)
                .build()
                .expect("shard engine builds");
            let endpoint = Endpoint::Unix(dir.join(format!("shard-{s}.sock")));
            let server = configure(
                ShardServer::bind(&endpoint, engine, s, assignment.clone()).expect("server binds"),
            );
            flags.push(server.shutdown_flag());
            endpoints.push(endpoint);
            handles.push(std::thread::spawn(move || {
                server.serve().expect("server loop");
            }));
        }
        Cluster {
            endpoints,
            assignment,
            flags,
            handles,
            dir,
        }
    }

    /// A coordinator over every shard of the cluster.
    pub fn connect(&self) -> RemoteShardedEngine {
        RemoteShardedEngine::builder(self.endpoints.clone())
            .connect_timeout(Duration::from_secs(10))
            .deadline(Duration::from_secs(30))
            .connect()
            .expect("coordinator connects")
    }

    /// Tells shard `shard`'s server to stop.
    pub fn kill_shard(&self, shard: usize) {
        self.flags[shard].store(true, Ordering::SeqCst);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for flag in &self.flags {
            flag.store(true, Ordering::SeqCst);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
