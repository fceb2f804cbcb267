//! `shard-server` process management: launching a multi-process
//! deployment and building its in-process twin, for the agreement tests
//! (`tests/rpc_agreement.rs`).
//!
//! The deployment contract mirrors the `shard-server` binary: every
//! process is launched with the same `--users/--seed/--partitioning/
//! --shards`, so each regenerates the identical dataset and
//! [`ShardAssignment`](ssrq_shard::ShardAssignment) and serves its own
//! shard of it.  [`ShardProcess::spawn`] blocks until the server announces
//! its bound endpoint on stdout, so a returned process is ready to accept
//! connections (and with `tcp:host:0` the announced endpoint carries the
//! kernel-assigned port).

use ssrq_data::DatasetConfig;
use ssrq_net::Endpoint;
use ssrq_shard::{Partitioning, ShardedEngine};
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// One synthetic multi-process deployment: the parameters every
/// `shard-server` process of the cluster is launched with.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Users of the (gowalla-like) dataset each process regenerates.
    pub users: usize,
    /// Dataset RNG seed.
    pub seed: u64,
    /// Number of shard processes.
    pub shards: usize,
    /// Location-space partitioning policy.
    pub partitioning: Partitioning,
    /// `(queries, seed, t)` of a social-neighbour cache warmed for the
    /// deterministic workload — what AIS-Cache needs.
    pub cache_workload: Option<(usize, u64, usize)>,
    /// Extra `shard-server` flags appended verbatim (e.g. `--log warn`
    /// or `--slow-query-ms 1000`).
    pub extra_args: Vec<String>,
}

impl DeploymentConfig {
    /// A plain deployment (no social cache).
    pub fn new(users: usize, seed: u64, shards: usize, partitioning: Partitioning) -> Self {
        DeploymentConfig {
            users,
            seed,
            shards,
            partitioning,
            cache_workload: None,
            extra_args: Vec::new(),
        }
    }

    /// The dataset every process of the deployment regenerates.
    pub fn dataset(&self) -> ssrq_core::GeoSocialDataset {
        DatasetConfig::gowalla_like(self.users)
            .with_seed(self.seed)
            .generate()
    }

    /// The `--partitioning` argument encoding of the policy.
    pub fn partitioning_arg(&self) -> String {
        let Partitioning::SpatialGrid { cells_per_axis } = self.partitioning;
        format!("spatial:{cells_per_axis}")
    }

    /// The in-process twin of the deployment: a [`ShardedEngine`] over the
    /// same dataset, partitioning and per-shard engine configuration.
    pub fn in_process_engine(&self) -> ShardedEngine {
        let mut builder = ShardedEngine::builder(self.dataset())
            .shards(self.shards)
            .partitioning(self.partitioning);
        let cache = self.cache_workload;
        let full = self.dataset();
        builder = builder.configure_engines(move |mut b| {
            if let Some((queries, seed, t)) = cache {
                let workload = ssrq_data::QueryWorkload::generate(&full, queries, seed);
                b = b.cache_social_neighbors(workload.users, t);
            }
            b
        });
        builder.build().expect("in-process twin builds")
    }
}

/// One running `shard-server` OS process.  Dropping it kills and reaps the
/// process, so a panicking test or measurement never leaks servers.
#[derive(Debug)]
pub struct ShardProcess {
    child: Child,
    /// The endpoint the server announced (its actually-bound address).
    pub endpoint: Endpoint,
}

impl ShardProcess {
    /// Spawns shard `shard` of `config` listening on `listen` and waits
    /// for its `listening on <endpoint>` announcement.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a child that exits (or prints something else)
    /// before announcing its endpoint.
    pub fn spawn(
        binary: &Path,
        listen: &Endpoint,
        shard: usize,
        config: &DeploymentConfig,
    ) -> io::Result<ShardProcess> {
        let mut command = Command::new(binary);
        command
            .arg("--listen")
            .arg(listen.to_string())
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--shards")
            .arg(config.shards.to_string())
            .arg("--users")
            .arg(config.users.to_string())
            .arg("--seed")
            .arg(config.seed.to_string())
            .arg("--partitioning")
            .arg(config.partitioning_arg())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some((queries, seed, t)) = config.cache_workload {
            command
                .arg("--cache-workload")
                .arg(format!("{queries},{seed},{t}"));
        }
        command.args(&config.extra_args);
        let mut child = command.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let endpoint = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|s| Endpoint::parse(s).ok());
        let Some(endpoint) = endpoint else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard {shard} announced `{}` instead of its endpoint",
                    line.trim()
                ),
            ));
        };
        Ok(ShardProcess { child, endpoint })
    }

    /// Kills the server process immediately (simulates a crashed shard).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ShardProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Launches every shard of `config` as its own OS process over Unix
/// sockets under `dir`, ready to accept connections on return.
///
/// # Errors
///
/// The first shard that fails to spawn or announce; already-started
/// processes are killed by their [`Drop`] when the partial `Vec` unwinds.
pub fn launch_cluster(
    binary: &Path,
    dir: &Path,
    config: &DeploymentConfig,
) -> io::Result<Vec<ShardProcess>> {
    std::fs::create_dir_all(dir)?;
    (0..config.shards)
        .map(|shard| {
            let listen = Endpoint::Unix(dir.join(format!("shard-{shard}.sock")));
            ShardProcess::spawn(binary, &listen, shard, config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_args_round_trip_the_policies() {
        let spatial =
            DeploymentConfig::new(100, 1, 2, Partitioning::SpatialGrid { cells_per_axis: 16 });
        assert_eq!(spatial.partitioning_arg(), "spatial:16");
    }
}
