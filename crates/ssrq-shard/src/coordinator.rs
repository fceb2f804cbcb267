//! The one coordinator core, generic over where its shards run: the
//! in-process [`ShardedEngine`](crate::ShardedEngine) and `ssrq-net`'s
//! socket coordinator are [`Coordinator`] over two [`ShardLink`]s.

use crate::partition::ShardAssignment;
use crate::stats::{ShardOutcome, ShardStats};
use crate::transport::{
    merge_ranked, scatter_sequential, shard_score_lower_bound, FailurePolicy, LinkError, ShardInfo,
    ShardLink,
};
use ssrq_core::{CoreError, QueryRequest, QueryResult, QueryStats, UserId};
use ssrq_obs::{Registry, SpanId, Trace};
use ssrq_spatial::{Point, Rect};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// The owner-table entry of a user no shard is known to hold.
const UNLOCATED: u32 = u32::MAX;

/// After how many adopted relocations a shard's rectangle is refreshed
/// exactly.  Growth-only maintenance keeps the bounds admissible but
/// degrades rect-skip pruning under churn; this caps the staleness at one
/// `O(residents)` refresh per 256 adoptions.
pub(crate) const RECT_REFRESH_CHURN: usize = 256;

/// A shard already visited, and its answer.
type Visited = (usize, QueryResult);

/// A traced query's trace and the span children hang under.
type Span<'t> = Option<(&'t Trace, SpanId)>;

fn open<'t>(parent: Span<'t>, name: &str) -> Span<'t> {
    parent.map(|(trace, id)| (trace, trace.open(name, Some(id))))
}

fn close(span: Span<'_>) {
    if let Some((trace, id)) = span {
        trace.close(id);
    }
}

/// Scatter-gather coordination over one [`ShardLink`] per shard.
///
/// **The owner table** ([`owner_of`](Coordinator::owner_of)) names, per
/// user, the shard that last reported holding the user's location.  It
/// only decides whom to ask *first*: a relocation goes to the cached owner,
/// and a query without a pinned origin is put to the cached owner without
/// one, which evaluates it from its own copy and names the origin it used.
/// When an answer shows the entry stale (a second coordinator moved the
/// user) the other shards are asked too, so answers and the one-holder
/// invariant never depend on the table; the query that meets a stale entry
/// repairs it.  The cost of a hint: a query for a user no shard holds asks
/// every shard once, since only all of them together can say "unlocated".
///
/// **Bounds.**  A shard's rectangle is the one its last [`ShardInfo`]
/// reported, grown by every relocation it adopted since, and refreshed
/// after 256 adoptions.
pub struct Coordinator<L> {
    links: Vec<L>,
    /// Per shard: the last reported info, its rect grown since.
    infos: Vec<ShardInfo>,
    /// Per shard: adoptions since its rect was last exact.
    churn: Vec<usize>,
    /// User → holding shard, or [`UNLOCATED`].  Atomic, so a `&self` query
    /// can repair a stale entry; `Relaxed`, because an entry is a hint that
    /// publishes no other data.
    owners: Vec<AtomicU32>,
    assignment: Option<ShardAssignment>,
    policy: FailurePolicy,
}

impl<L: std::fmt::Debug> std::fmt::Debug for Coordinator<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("links", &self.links)
            .field("policy", &self.policy)
            .field("users", &self.owners.len())
            .finish_non_exhaustive()
    }
}

/// The owner table of `user_count` users whose residents are `holders`.
fn owner_table(user_count: u64, holders: &[(UserId, Point, usize)]) -> Vec<AtomicU32> {
    let mut owners: Vec<AtomicU32> = (0..user_count).map(|_| AtomicU32::new(UNLOCATED)).collect();
    for &(user, _, shard) in holders {
        // Shard-reported ids are unchecked against the user count.
        if let Some(entry) = owners.get_mut(user as usize) {
            *entry.get_mut() = shard as u32;
        }
    }
    owners
}

impl<L: ShardLink> Coordinator<L> {
    /// A coordinator over `shards`: shard `i` is `shards[i]`, with the
    /// [`ShardInfo`] it last reported.  The shards' resident lists fill the
    /// owner table.  Only [`rebalance`](Coordinator::rebalance) needs
    /// `assignment`.
    ///
    /// # Errors
    ///
    /// Whatever a link reports while listing its residents.
    ///
    /// # Panics
    ///
    /// With no shard at all.
    pub fn new(
        shards: Vec<(L, ShardInfo)>,
        assignment: Option<ShardAssignment>,
    ) -> Result<Self, L::Error> {
        assert!(!shards.is_empty(), "a coordinator needs at least one shard");
        let (links, infos): (Vec<L>, Vec<ShardInfo>) = shards.into_iter().unzip();
        let mut core = Coordinator {
            churn: vec![0; links.len()],
            links,
            infos,
            owners: Vec::new(),
            assignment,
            policy: FailurePolicy::default(),
        };
        core.owners = owner_table(core.user_count(), &core.holders()?);
        Ok(core)
    }

    /// The links, by shard.
    pub fn links(&self) -> &[L] {
        &self.links
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.links.len()
    }

    /// Users of the deployment (every shard holds the full graph).
    pub fn user_count(&self) -> u64 {
        self.infos[0].user_count
    }

    /// The shard the owner table names as holding `user`'s location;
    /// `None` once the location is removed, for a user never located and
    /// for an unknown user.  A hint: a second coordinator on the same
    /// shards may have moved the user since.
    pub fn owner_of(&self, user: UserId) -> Option<usize> {
        match self.owners.get(user as usize)?.load(Ordering::Relaxed) {
            UNLOCATED => None,
            shard => Some(shard as usize),
        }
    }

    fn set_owner(&self, user: UserId, shard: Option<usize>) {
        if let Some(entry) = self.owners.get(user as usize) {
            entry.store(shard.map_or(UNLOCATED, |s| s as u32), Ordering::Relaxed);
        }
    }

    /// Shard `shard`'s last reported info, with the rectangle the
    /// coordinator bounds it by (grown by every adoption since).
    pub fn shard_info(&self, shard: usize) -> &ShardInfo {
        &self.infos[shard]
    }

    /// Relocations shard `shard` adopted since its rectangle was exact.
    pub fn rect_churn(&self, shard: usize) -> usize {
        self.churn[shard]
    }

    /// The deployment's assignment, when the coordinator was given one.
    pub fn assignment(&self) -> Option<&ShardAssignment> {
        self.assignment.as_ref()
    }

    /// What a mid-query shard failure does from now on (default:
    /// [`FailurePolicy::Fail`]).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.policy = policy;
    }

    fn check_user(&self, user: UserId) -> Result<(), L::Error> {
        if u64::from(user) < self.user_count() {
            Ok(())
        } else {
            Err(CoreError::UnknownUser(user).into())
        }
    }

    /// Every located resident of every shard, as `(user, location, shard)`.
    fn holders(&self) -> Result<Vec<(UserId, Point, usize)>, L::Error> {
        let mut holders = Vec::new();
        for (shard, link) in self.links.iter().enumerate() {
            let residents = link.list_located()?;
            holders.extend(residents.into_iter().map(|(user, p)| (user, p, shard)));
        }
        Ok(holders)
    }

    /// Runs one query by best-first sequential scatter-gather, every link
    /// call through `ctx`; a `trace` receives the `scatter`,
    /// `resolve_origin`, per-shard and `merge` spans under its span.
    ///
    /// A request without a pinned origin goes first to the query user's
    /// cached owner, as it is: the owner answers from its own copy of the
    /// location and names it, and the scatter bounds the other shards from
    /// it.  If it names none (stale entry, unlocated user), its answer is
    /// discarded and the other shards are asked in turn; the one that
    /// names the origin becomes the entry, and if none does (and all
    /// answered) the entry becomes "unlocated".  The merged stats include
    /// the discarded answers.
    ///
    /// # Errors
    ///
    /// [`CoreError`] classes for an invalid request or unknown user.  Under
    /// [`FailurePolicy::Fail`] the first shard failure; under `Degrade` an
    /// unreachable shard is named in the outcomes of a result flagged
    /// [`degraded`](QueryResult::degraded) — so is one unreachable while
    /// the origin stayed unresolved, since it may have held the user — and
    /// only a refusal still errors.
    pub fn run_with(
        &self,
        request: &QueryRequest,
        ctx: &mut L::Context,
        trace: Option<(&Trace, SpanId)>,
    ) -> Result<(QueryResult, ShardStats), L::Error> {
        let started = Instant::now();
        request.validate()?;
        self.check_user(request.user())?;
        let scatter_span = open(trace, "scatter");
        let mut lookups = QueryStats::default();
        let mut unreachable: Vec<(usize, String)> = Vec::new();
        let (base, first_visit) = match request.origin() {
            Some(_) => (request.clone(), None),
            None => {
                let span = open(scatter_span, "resolve_origin");
                let resolved =
                    self.resolve_origin(request, ctx, trace, &mut lookups, &mut unreachable);
                close(span);
                resolved?
            }
        };
        let bounds = self.bounds(&base);
        let scatter = scatter_sequential(
            &bounds,
            &base,
            self.policy,
            first_visit,
            |shard, request| {
                self.ask(shard, request, ctx, trace)
                    .map(|(result, _)| result)
            },
            |shard| self.links[shard].describe(),
        );
        let scatter_elapsed = started.elapsed();
        close(scatter_span);
        let mut scatter = scatter?;
        if base.origin().is_none() {
            for (shard, detail) in unreachable {
                scatter.degraded = true;
                scatter.outcomes[shard] = ShardOutcome::Failed {
                    shard: self.links[shard].describe(),
                    detail: format!("unreachable during origin resolution: {detail}"),
                };
            }
        }
        let merge_span = open(trace, "merge");
        let merge_started = Instant::now();
        let ranked = merge_ranked(scatter.entries, base.k());
        let merge_elapsed = merge_started.elapsed();
        close(merge_span);
        let mut stats = ShardStats::new(scatter.outcomes, started.elapsed());
        stats.merged.merge(&lookups);
        crate::obs::record_scatter(Registry::global(), &stats, scatter_elapsed, merge_elapsed);
        let result = QueryResult {
            ranked,
            k: base.k(),
            degraded: scatter.degraded,
            stats: stats.merged,
        };
        Ok((result, stats))
    }

    /// Every shard's [`shard_score_lower_bound`] for `base`, the broadcast
    /// form of a request (its origin resolved where the user has one).
    pub(crate) fn bounds(&self, base: &QueryRequest) -> Vec<f64> {
        self.infos
            .iter()
            .map(|info| shard_score_lower_bound(info.rect, base, base.origin(), info.spatial_norm))
            .collect()
    }

    /// Puts `request`, which pins no origin, to the cached owner and then
    /// to the other shards until one names the origin; returns the request
    /// pinned to it with that shard and its answer (the scatter's first
    /// visit).  Answers naming none are charged to `lookups`; under
    /// `Degrade`, unreachable shards go to `unreachable`.
    fn resolve_origin(
        &self,
        request: &QueryRequest,
        ctx: &mut L::Context,
        trace: Span<'_>,
        lookups: &mut QueryStats,
        unreachable: &mut Vec<(usize, String)>,
    ) -> Result<(QueryRequest, Option<Visited>), L::Error> {
        let user = request.user();
        let owner = self.owner_of(user);
        let others = (0..self.links.len()).filter(|&shard| Some(shard) != owner);
        for shard in owner.into_iter().chain(others) {
            match self.ask(shard, request, ctx, trace) {
                Ok((result, Some(origin))) => {
                    if owner != Some(shard) {
                        self.set_owner(user, Some(shard));
                    }
                    return Ok((request.clone().with_origin(origin), Some((shard, result))));
                }
                Ok((result, None)) => lookups.merge(&result.stats),
                Err(e) if !e.unreachable() => return Err(e),
                Err(e) => match self.policy {
                    FailurePolicy::Fail => return Err(e),
                    FailurePolicy::Degrade => unreachable.push((shard, e.to_string())),
                },
            }
        }
        if unreachable.is_empty() {
            self.set_owner(user, None);
        }
        Ok((request.clone(), None))
    }

    /// One query call to shard `shard`, under a span of its own.
    fn ask(
        &self,
        shard: usize,
        request: &QueryRequest,
        ctx: &mut L::Context,
        trace: Span<'_>,
    ) -> Result<(QueryResult, Option<Point>), L::Error> {
        let link = &self.links[shard];
        let span = trace.map(|(trace, root)| {
            let name = format!("shard {}", link.describe());
            (trace, trace.open(&name, Some(root)))
        });
        let answer = link.query(request, ctx);
        close(span);
        answer
    }

    /// Moves `user` to `location` through the relocation router and
    /// returns the adopting shard, whose rectangle grows to cover the
    /// location (and is refreshed after 256 adoptions).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] or a non-finite location, before any
    /// shard is told; any shard failure, whatever the failure policy
    /// (relocations are exactness-critical); a [`LinkError::violation`]
    /// when not exactly one shard adopts.
    pub fn update_location(&mut self, user: UserId, location: Point) -> Result<usize, L::Error> {
        self.check_user(user)?;
        if !location.is_finite() {
            let detail = format!("non-finite location {location}");
            return Err(CoreError::InvalidParameter(detail).into());
        }
        let Some(adopter) = self.route(user, Some(location))? else {
            let detail = format!("no shard adopted the relocation of user {user}");
            return Err(L::Error::violation("coordinator".into(), detail));
        };
        let rect = &mut self.infos[adopter].rect;
        *rect = Some(rect.map_or(Rect::new(location, location), |r| r.including(location)));
        self.churn[adopter] += 1;
        if self.churn[adopter] >= RECT_REFRESH_CHURN {
            self.refresh_shard(adopter)?;
        }
        Ok(adopter)
    }

    /// Removes `user`'s location through the relocation router (rectangles
    /// stay as they are: still admissible).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`]; any shard failure.
    pub fn remove_location(&mut self, user: UserId) -> Result<(), L::Error> {
        self.check_user(user)?;
        self.route(user, None).map(|_| ())
    }

    /// The relocation router: tells the cached owner first, and every other
    /// shard unless the owner settled the report — it held the user and
    /// adopted it again, or the report is a removal: it was then the one
    /// holder.  Each shard adopts or drops per its assignment replica.
    /// Keeps the owner table; returns the adopter.
    fn route(&mut self, user: UserId, location: Option<Point>) -> Result<Option<usize>, L::Error> {
        let cached = self.owner_of(user);
        let mut adopter = None;
        let mut settled = false;
        if let Some(owner) = cached {
            let (adopted, held) = self.links[owner].relocate(user, location)?;
            adopter = adopted.then_some(owner);
            settled = held && (adopted || location.is_none());
        }
        if !settled {
            for (shard, link) in self.links.iter_mut().enumerate() {
                if cached == Some(shard) {
                    continue;
                }
                let (adopted, _) = link.relocate(user, location)?;
                if adopted {
                    if let Some(first) = adopter {
                        let detail = format!("shards {first} and {shard} both adopted user {user}");
                        return Err(L::Error::violation(link.describe(), detail));
                    }
                    adopter = Some(shard);
                }
            }
        }
        self.set_owner(user, adopter);
        Ok(adopter)
    }

    fn refresh_shard(&mut self, shard: usize) -> Result<(), L::Error> {
        let info = self.links[shard].refresh()?;
        if info.shard as usize != shard {
            let detail = format!("shard now claims index {} at position {shard}", info.shard);
            return Err(L::Error::violation(self.links[shard].describe(), detail));
        }
        self.infos[shard] = info;
        self.churn[shard] = 0;
        Ok(())
    }

    /// Refreshes every shard's info, making every rectangle exact.
    ///
    /// # Errors
    ///
    /// Any shard failure, or a shard reporting another index.
    pub fn refresh(&mut self) -> Result<(), L::Error> {
        (0..self.links.len()).try_for_each(|shard| self.refresh_shard(shard))
    }

    /// Repacks the assignment to the *current* locations and migrates every
    /// user whose owner changed: list the residents (rebuilding the owner
    /// table), [`ShardAssignment::repack`], install the cell map on every
    /// shard, relocate the moved users, refresh.  Returns how many users
    /// moved.  Only locations move; the shared graph and its indexes are
    /// never rebuilt or copied.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] without an assignment; any shard
    /// failure.
    pub fn rebalance(&mut self) -> Result<usize, L::Error> {
        if self.assignment.is_none() {
            let detail = "rebalance needs the deployment's ShardAssignment".into();
            return Err(CoreError::InvalidParameter(detail).into());
        }
        let holders = self.holders()?;
        self.owners = owner_table(self.user_count(), &holders);
        let assignment = self.assignment.as_mut().expect("checked above");
        assignment.repack(&holders.iter().map(|&(_, p, _)| p).collect::<Vec<_>>());
        let moves: Vec<(UserId, Point)> = holders
            .iter()
            .filter(|&&(user, p, holder)| assignment.owner_for(user, Some(p)) != holder)
            .map(|&(user, p, _)| (user, p))
            .collect();
        let cell_map = assignment.cell_map().to_vec();
        for link in &mut self.links {
            link.set_assignment(&cell_map)?;
        }
        for &(user, p) in &moves {
            self.route(user, Some(p))?;
        }
        self.refresh()?;
        Ok(moves.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_core::Algorithm;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// What the scripted shards hold, and every link call in order.
    #[derive(Default)]
    struct Cluster {
        held: Vec<BTreeMap<UserId, Point>>,
        /// Shards that adopt every location, whatever its cell.
        greedy: Vec<bool>,
        calls: Vec<(usize, &'static str)>,
    }

    /// A shard scripted over a shared [`Cluster`]: it owns the locations
    /// whose `x` truncates to its index (or all of them when greedy), and
    /// the test can move users between shards behind the coordinator's
    /// back, as a second coordinator would.
    struct ScriptedLink {
        index: usize,
        cluster: Rc<RefCell<Cluster>>,
    }

    impl ShardLink for ScriptedLink {
        type Error = CoreError;
        type Context = ();

        fn query(
            &self,
            request: &QueryRequest,
            _ctx: &mut (),
        ) -> Result<(QueryResult, Option<Point>), CoreError> {
            let mut cluster = self.cluster.borrow_mut();
            cluster.calls.push((self.index, "query"));
            let origin = match request.origin() {
                Some(_) => None,
                None => cluster.held[self.index].get(&request.user()).copied(),
            };
            let result = QueryResult {
                ranked: Vec::new(),
                k: request.k(),
                degraded: false,
                stats: QueryStats::default(),
            };
            Ok((result, origin))
        }

        fn relocate(
            &mut self,
            user: UserId,
            location: Option<Point>,
        ) -> Result<(bool, bool), CoreError> {
            let mut cluster = self.cluster.borrow_mut();
            cluster.calls.push((self.index, "relocate"));
            let greedy = cluster.greedy[self.index];
            let held = &mut cluster.held[self.index];
            let was_held = held.remove(&user).is_some();
            let adopted = match location {
                Some(p) if greedy || p.x as usize == self.index => {
                    held.insert(user, p);
                    true
                }
                _ => false,
            };
            Ok((adopted, was_held))
        }

        fn list_located(&self) -> Result<Vec<(UserId, Point)>, CoreError> {
            let cluster = self.cluster.borrow();
            Ok(cluster.held[self.index]
                .iter()
                .map(|(&u, &p)| (u, p))
                .collect())
        }

        fn refresh(&self) -> Result<ShardInfo, CoreError> {
            Ok(info(self.index))
        }

        fn set_assignment(&mut self, _cell_map: &[u32]) -> Result<(), CoreError> {
            Ok(())
        }

        fn describe(&self) -> String {
            format!("scripted shard {}", self.index)
        }
    }

    fn info(shard: usize) -> ShardInfo {
        ShardInfo {
            shard: shard as u32,
            shards: 3,
            user_count: 10,
            located: 0,
            rect: None,
            spatial_norm: 1.0,
            social_norm: 1.0,
        }
    }

    /// Three scripted shards; user 3 lives on shard 0.  The call log starts
    /// empty once the coordinator is built.
    fn cluster(greedy: [bool; 3]) -> (Coordinator<ScriptedLink>, Rc<RefCell<Cluster>>) {
        let cluster = Rc::new(RefCell::new(Cluster {
            held: vec![BTreeMap::new(); 3],
            greedy: greedy.to_vec(),
            calls: Vec::new(),
        }));
        cluster.borrow_mut().held[0].insert(3, Point::new(0.5, 0.5));
        let links = (0..3)
            .map(|index| {
                let link = ScriptedLink {
                    index,
                    cluster: Rc::clone(&cluster),
                };
                (link, info(index))
            })
            .collect();
        let core = Coordinator::new(links, None).unwrap();
        cluster.borrow_mut().calls.clear();
        (core, cluster)
    }

    fn request(user: UserId) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(2)
            .alpha(0.5)
            .algorithm(Algorithm::Exhaustive)
            .build()
            .unwrap()
    }

    #[test]
    fn two_adopters_are_a_typed_error() {
        let (mut core, _) = cluster([false, true, true]);
        let err = core
            .update_location(7, Point::new(1.5, 0.5))
            .expect_err("shards 1 and 2 both adopt");
        assert!(
            matches!(&err, CoreError::InvalidDataset(detail) if detail.contains("both adopted")),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn a_cached_owner_that_held_and_adopts_costs_one_call() {
        let (mut core, cluster) = cluster([false; 3]);
        assert_eq!(core.owner_of(3), Some(0));
        assert_eq!(core.update_location(3, Point::new(0.6, 0.4)), Ok(0));
        assert_eq!(cluster.borrow().calls, vec![(0, "relocate")]);
        assert_eq!(core.rect_churn(0), 1);
    }

    #[test]
    fn a_removal_through_a_stale_entry_tells_every_link() {
        let (mut core, cluster) = cluster([false; 3]);
        // A second coordinator moved user 3 to shard 2.
        {
            let mut cluster = cluster.borrow_mut();
            cluster.held[0].remove(&3);
            cluster.held[2].insert(3, Point::new(2.5, 0.5));
        }
        assert_eq!(core.owner_of(3), Some(0));
        core.remove_location(3).unwrap();
        let cluster = cluster.borrow();
        assert_eq!(
            cluster.calls,
            vec![(0, "relocate"), (1, "relocate"), (2, "relocate")]
        );
        assert!(cluster.held.iter().all(|held| !held.contains_key(&3)));
        assert_eq!(core.owner_of(3), None);
    }

    #[test]
    fn an_unlocated_users_query_asks_every_shard_once() {
        let (core, cluster) = cluster([false; 3]);
        assert_eq!(core.owner_of(7), None);
        let (result, stats) = core.run_with(&request(7), &mut (), None).unwrap();
        assert!(result.ranked.is_empty());
        assert_eq!(stats.executed_shards(), 0);
        assert_eq!(
            cluster.borrow().calls,
            vec![(0, "query"), (1, "query"), (2, "query")]
        );
    }

    #[test]
    fn a_query_repairs_the_stale_entry_it_meets() {
        let (core, cluster) = cluster([false; 3]);
        {
            let mut cluster = cluster.borrow_mut();
            cluster.held[0].remove(&3);
            cluster.held[2].insert(3, Point::new(2.5, 0.5));
        }
        core.run_with(&request(3), &mut (), None).unwrap();
        assert_eq!(
            cluster.borrow().calls,
            vec![(0, "query"), (1, "query"), (2, "query")]
        );
        assert_eq!(core.owner_of(3), Some(2));
        cluster.borrow_mut().calls.clear();
        // Every shard is empty by its rectangle, so the owner's answer is
        // the whole scatter.
        let (_, stats) = core.run_with(&request(3), &mut (), None).unwrap();
        assert_eq!(cluster.borrow().calls, vec![(2, "query")]);
        assert_eq!(stats.executed_shards(), 1);
    }
}
