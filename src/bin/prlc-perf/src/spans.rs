//! Benchmark-side tracing: spans recorded around calls into each layer,
//! plus two wrappers that reach calls made from *inside* library code.
//!
//! A span records its name, op id, parent span and duration. Repeated
//! calls of one name under one parent within one op (every `route` of a
//! collection session, every `insert_block` of a decode) merge into a
//! single record with a call count, so a traced run keeps a few records
//! per op however many leaf calls it makes. All spans of an op run one
//! after another on one thread, so children never overlap and a span's
//! self time is its duration minus its children's.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;

use prlc::core::{CodedBlock, InsertOutcome, PriorityDecoder};
use prlc::gf::GfElem;
use prlc::net::{Network, NodeId, NodeLocator, RingNetwork, Route};
use prlc::sim::measure_wall_ms;
use rand::Rng;

/// One merged span: every call of `name` under `parent` in op `op`.
#[derive(Debug, Clone)]
pub struct Record {
    pub name: &'static str,
    pub op: usize,
    /// Index of the parent record in [`Spans::records`].
    pub parent: Option<usize>,
    pub calls: u64,
    pub ms: f64,
}

/// The in-memory span recorder of one traced run.
#[derive(Debug, Default)]
pub struct Spans {
    records: RefCell<Vec<Record>>,
    open: RefCell<Vec<usize>>,
    op: Cell<usize>,
    op_first: Cell<usize>,
    /// Duration of every `core.decode.insert` call, in microseconds.
    insert_us: RefCell<Vec<f64>>,
    /// Hops summed over every routed `net.ring.route` call.
    route_hops: Cell<u64>,
}

impl Spans {
    /// Starts op `op`: spans recorded from here on belong to it.
    pub fn begin_op(&self, op: usize) {
        self.op.set(op);
        self.op_first.set(self.records.borrow().len());
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result and duration in milliseconds.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut records = self.records.borrow_mut();
            let first = self.op_first.get();
            match records[first..]
                .iter()
                .position(|r| r.name == name && r.parent == parent)
            {
                Some(k) => first + k,
                None => {
                    records.push(Record {
                        name,
                        op: self.op.get(),
                        parent,
                        calls: 0,
                        ms: 0.0,
                    });
                    records.len() - 1
                }
            }
        };
        self.open.borrow_mut().push(idx);
        let (out, ms) = measure_wall_ms(f);
        self.open.borrow_mut().pop();
        let mut records = self.records.borrow_mut();
        records[idx].calls += 1;
        records[idx].ms += ms;
        (out, ms)
    }

    pub fn records(&self) -> Vec<Record> {
        self.records.borrow().clone()
    }

    pub fn insert_us(&self) -> Vec<f64> {
        self.insert_us.borrow().clone()
    }

    pub fn route_hops(&self) -> u64 {
        self.route_hops.get()
    }

    /// The records as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, r) in self.records.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"calls\":{},\"ms\":{}}}",
                r.name, r.op, r.calls, r.ms
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A [`RingNetwork`] whose `route`, `owner_of` and `fail_uniform` run
/// inside spans (`net.ring.route`, `net.ring.owner_of`,
/// `net.ring.churn`), so time spent in ring lookups from inside
/// `predistribute`, `refresh` and `collect` is attributed to the ring.
pub struct TimedNet<'a> {
    inner: &'a mut RingNetwork,
    spans: &'a Spans,
}

impl<'a> TimedNet<'a> {
    pub fn new(inner: &'a mut RingNetwork, spans: &'a Spans) -> Self {
        TimedNet { inner, spans }
    }
}

impl Network for TimedNet<'_> {
    type Point = u64;

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn alive_count(&self) -> usize {
        self.inner.alive_count()
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.inner.is_alive(node)
    }

    fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.inner.random_point(rng)
    }

    fn owner_of(&self, point: u64) -> Option<NodeId> {
        self.spans
            .span("net.ring.owner_of", || self.inner.owner_of(point))
            .0
    }

    fn route(&self, from: NodeId, point: u64) -> Option<Route> {
        let (route, _) = self
            .spans
            .span("net.ring.route", || self.inner.route(from, point));
        if let Some(r) = route {
            let hops = &self.spans.route_hops;
            hops.set(hops.get() + r.hops as u64);
        }
        route
    }

    fn random_alive_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        self.inner.random_alive_node(rng)
    }

    fn fail_uniform<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) -> usize {
        let inner = &mut *self.inner;
        self.spans
            .span("net.ring.churn", || inner.fail_uniform(fraction, rng))
            .0
    }
}

impl NodeLocator for TimedNet<'_> {
    fn locate(&self, node: NodeId) -> u64 {
        self.inner.locate(node)
    }
}

/// A decoder whose `insert_block` runs inside a `core.decode.insert`
/// span, so decoding done from inside `collect` is attributed to it.
pub struct TimedDecoder<'a, D> {
    inner: D,
    spans: &'a Spans,
}

impl<'a, D> TimedDecoder<'a, D> {
    pub fn new(inner: D, spans: &'a Spans) -> Self {
        TimedDecoder { inner, spans }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<F: GfElem, D: PriorityDecoder<F>> PriorityDecoder<F> for TimedDecoder<'_, D> {
    fn insert_block(&mut self, block: &CodedBlock<F>) -> InsertOutcome {
        let inner = &mut self.inner;
        let (out, ms) = self
            .spans
            .span("core.decode.insert", || inner.insert_block(block));
        self.spans.insert_us.borrow_mut().push(ms * 1e3);
        out
    }

    fn decoded_levels(&self) -> usize {
        self.inner.decoded_levels()
    }

    fn decoded_blocks(&self) -> usize {
        self.inner.decoded_blocks()
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn blocks_processed(&self) -> usize {
        self.inner.blocks_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc::core::{CoeffRep, PlcDecoder, PriorityDistribution, PriorityProfile, Scheme};
    use prlc::gf::Gf256;
    use prlc::net::{
        collect_with_faults, predistribute_with_faults, refresh_with_faults, CollectionConfig,
        FaultPlan, ProtocolConfig, RefreshConfig, RetryPolicy, SourceFanout,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn protocol() -> ProtocolConfig {
        ProtocolConfig {
            scheme: Scheme::Plc,
            profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            distribution: PriorityDistribution::uniform(3),
            locations: 60,
            fanout: SourceFanout::Log { factor: 2.0 },
            coeff_rep: CoeffRep::Sparse,
            two_choices: true,
            node_capacity: None,
            shared_seed: 11,
        }
    }

    /// Predistribute, churn, refresh and collect on `net` (a 500-node
    /// ring, wrapped or not), returning every result's `Debug`.
    fn pipeline<N: NodeLocator, D: PriorityDecoder<Gf256>>(
        net: &mut N,
        decoder: impl FnOnce(PriorityProfile) -> D,
    ) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(6);
        let mut session = FaultPlan::lossy(0.2, RetryPolicy::with_retries(2, 1), 9).session(500);
        let sources: Vec<Vec<Gf256>> = vec![Vec::new(); 10];
        let repair = RefreshConfig {
            scheme: Scheme::Plc,
            donors_per_slot: 3,
        };
        let mut dep =
            predistribute_with_faults(&*net, &protocol(), &sources, &mut session, &mut rng)
                .unwrap();
        let mut out = vec![format!("{dep:?}")];
        net.fail_uniform(0.3, &mut rng);
        let report = refresh_with_faults(&*net, &mut dep, &repair, &mut session, &mut rng);
        out.push(format!("{report:?} {dep:?}"));
        let collector = net.random_alive_node(&mut rng).unwrap();
        let mut dec = decoder(dep.profile().clone());
        let report = collect_with_faults(
            &*net,
            &dep,
            &mut dec,
            collector,
            &CollectionConfig::default(),
            &mut session,
            &mut rng,
        );
        out.push(format!("{report:?} {}", dec.decoded_levels()));
        out
    }

    #[test]
    fn wrapped_pipeline_matches_plain_pipeline() {
        let mut rng = StdRng::seed_from_u64(5);
        let ring = RingNetwork::new(500, &mut rng);
        let plain = pipeline(
            &mut ring.clone(),
            PlcDecoder::<Gf256, ()>::coefficients_only,
        );
        let spans = Spans::default();
        let mut copy = ring.clone();
        let wrapped = pipeline(&mut TimedNet::new(&mut copy, &spans), |p| {
            TimedDecoder::new(PlcDecoder::<Gf256, ()>::coefficients_only(p), &spans)
        });
        assert_eq!(wrapped, plain);
        assert!(spans.route_hops() > 0, "no route was timed");
        assert!(!spans.insert_us().is_empty(), "no insert was timed");
    }

    #[test]
    fn timed_net_forwards_every_method() {
        let spans = Spans::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut plain = RingNetwork::new(500, &mut rng);
        let mut copy = plain.clone();
        let mut timed = TimedNet::new(&mut copy, &spans);
        let (mut ra, mut rb) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        assert_eq!(
            timed.fail_uniform(0.4, &mut ra),
            plain.fail_uniform(0.4, &mut rb)
        );
        assert_eq!(timed.node_count(), plain.node_count());
        assert_eq!(timed.alive_count(), plain.alive_count());
        for _ in 0..20 {
            let p = timed.random_point(&mut ra);
            assert_eq!(p, plain.random_point(&mut rb));
            assert_eq!(timed.owner_of(p), plain.owner_of(p));
            let from = plain.random_alive_node(&mut rb);
            assert_eq!(timed.random_alive_node(&mut ra), from);
            let from = from.unwrap();
            assert_eq!(timed.route(from, p), plain.route(from, p));
            assert_eq!(timed.is_alive(from), plain.is_alive(from));
            assert_eq!(timed.locate(from), plain.locate(from));
        }
        let names: Vec<&str> = spans.records().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["net.ring.churn", "net.ring.owner_of", "net.ring.route"]
        );
        assert!(spans.records().iter().skip(1).all(|r| r.calls == 20));
    }

    #[test]
    fn timed_decoder_forwards_every_method() {
        let spans = Spans::default();
        let profile = PriorityProfile::new(vec![2, 3]).unwrap();
        let encoder = prlc::core::Encoder::new(Scheme::Plc, profile.clone());
        let mut plain: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(profile.clone());
        let mut timed = TimedDecoder::new(PlcDecoder::coefficients_only(profile), &spans);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..8 {
            let block = encoder.encode_unpayloaded::<Gf256, _>(i % 2, &mut rng);
            assert_eq!(timed.insert_block(&block), plain.insert_block(&block));
            assert_eq!(timed.decoded_levels(), plain.decoded_levels());
            assert_eq!(timed.decoded_blocks(), plain.decoded_blocks());
            assert_eq!(timed.is_complete(), plain.is_complete());
            assert_eq!(timed.blocks_processed(), plain.blocks_processed());
        }
        assert_eq!(spans.insert_us().len(), 8);
        assert_eq!(spans.records()[0].calls, 8);
    }

    #[test]
    fn spans_nest_and_merge_per_op() {
        let spans = Spans::default();
        for op in 0..2 {
            spans.begin_op(op);
            spans.span("sim.op", || {
                for _ in 0..3 {
                    spans.span("leaf", || ());
                }
            });
        }
        let r = spans.records();
        assert_eq!(r.len(), 4);
        assert_eq!((r[1].name, r[1].parent, r[1].calls), ("leaf", Some(0), 3));
        assert_eq!((r[2].op, r[3].parent), (1, Some(2)));
        assert!(r.iter().all(|x| x.ms >= 0.0));
        assert!(spans.to_json("codec", 1).contains("\"parent\":2"));
    }
}
