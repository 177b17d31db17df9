//! The system under test, wired the way a deployment wires it.
//!
//! Two fixtures, both built through the real protocol:
//!
//! * [`RegFixture`] — `NetPublisher::serve_registration` behind a direct
//!   socket, a pool of token-holding subjects, one `RegistrationClient`.
//! * [`PubFixture`] — signing `NetPublisher` → origin broker (publisher
//!   auth on, durable log recovered at start) → relay hop → edge broker →
//!   one `NetSubscriber`; 128 subscribers registered for 3 EQ + 1 GE
//!   condition each.
//!
//! Broker pools are pinned to one writer and one reader thread so the
//! numbers do not depend on host auto-sizing.

use crate::gen::{self, Doc, Inputs};
use crate::probe::{PubProbes, RegProbes};
use pbcd_commit::Opening;
use pbcd_core::proto::{IssueRequest, Request, Response};
use pbcd_core::{
    service, session, IdentityManager, IdentityProvider, IssuerService, NetPublisher,
    NetSubscriber, PbcdError, Publisher, PublisherService, RegistrationSession, Subscriber,
};
use pbcd_group::{P256Group, SigningKey, VerifyingKey};
use pbcd_net::frame::{signed_container_offset, Frame, CONTAINER_OFFSET};
use pbcd_net::{
    Broker, BrokerConfig, BrokerHandle, FsyncPolicy, PublisherDirectory, RegistrationClient,
    RelayConfig,
};
use pbcd_policy::{AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The group every fixture runs on.
pub type G = P256Group;

/// Key id the publisher signs under.
pub const KEY_ID: &str = "bench-pub";

/// The seven registrable conditions.
pub struct Conditions {
    /// `role = doctor`
    pub doctor: AttributeCondition,
    /// `role = nurse`
    pub nurse: AttributeCondition,
    /// `unit = icu`
    pub icu: AttributeCondition,
    /// `unit = general`
    pub general: AttributeCondition,
    /// `team = oncall`
    pub oncall: AttributeCondition,
    /// `team = day`
    pub day: AttributeCondition,
    /// `clearance >= 5`
    pub clearance: AttributeCondition,
}

impl Conditions {
    /// The conditions, as the policies name them.
    pub fn new() -> Self {
        Self {
            doctor: AttributeCondition::eq_str("role", "doctor"),
            nurse: AttributeCondition::eq_str("role", "nurse"),
            icu: AttributeCondition::eq_str("unit", "icu"),
            general: AttributeCondition::eq_str("unit", "general"),
            oncall: AttributeCondition::eq_str("team", "oncall"),
            day: AttributeCondition::eq_str("team", "day"),
            clearance: AttributeCondition::new("clearance", ComparisonOp::Ge, 5),
        }
    }

    /// The access control policies of `doc` as `(conditions, rows)`, one per
    /// protected tag in [`Doc::tags`] order: the row count is what the
    /// fixture population must produce.
    pub fn acps(&self, doc: Doc) -> Vec<(Vec<AttributeCondition>, usize)> {
        match doc {
            Doc::Ward => vec![
                (vec![self.doctor.clone()], gen::DOCTORS),
                (
                    vec![self.icu.clone()],
                    gen::ICU_DOCTORS + gen::POPULATION - gen::DOCTORS,
                ),
            ],
            Doc::Small => vec![(vec![self.oncall.clone()], gen::ONCALL)],
            Doc::Bulk => vec![
                (
                    vec![self.doctor.clone(), self.icu.clone()],
                    gen::ICU_DOCTORS,
                ),
                (vec![self.oncall.clone()], gen::ONCALL),
            ],
        }
    }

    /// The policy set: one object per ACP of the three published
    /// documents, plus policies that exist only so the remaining
    /// conditions are registrable.
    pub fn policies(&self) -> PolicySet {
        let mut set = PolicySet::new();
        for doc in [Doc::Ward, Doc::Small, Doc::Bulk] {
            for ((conds, _), tag) in self.acps(doc).into_iter().zip(doc.tags()) {
                set.add(AccessControlPolicy::new(conds, &[tag], doc.name()));
            }
        }
        for (cond, tag) in [
            (&self.clearance, "Ledger"),
            (&self.nurse, "Chart"),
            (&self.general, "Roster"),
            (&self.day, "Rota"),
        ] {
            set.add(AccessControlPolicy::new(
                vec![cond.clone()],
                &[tag],
                "vault.xml",
            ));
        }
        set
    }
}

impl Default for Conditions {
    fn default() -> Self {
        Self::new()
    }
}

/// A subscriber with the openings of its tokens kept beside it, so probes
/// can call `OcbeSystem` directly without touching the subscriber's state.
pub struct Holder {
    /// The subscriber actor.
    pub sub: Subscriber<G>,
    /// The pseudonym the identity manager assigned.
    pub nym: String,
    /// attribute → (value, commitment opening).
    pub openings: BTreeMap<String, (u64, Opening)>,
}

/// Identity provider and identity manager behind an [`IssuerService`].
pub struct Authority {
    /// The deployment group.
    pub group: G,
    /// The identity manager's token-verification key.
    pub idmgr_key: VerifyingKey<G>,
    issuer: IssuerService<G>,
}

impl Authority {
    /// Generates the issuer's keys from the run's seeds.
    pub fn new(seeds: &gen::Seeds) -> Self {
        let group = P256Group::new();
        let mut rng = StdRng::seed_from_u64(seeds.authority);
        let idp = IdentityProvider::new(group.clone(), "bench-hr", &mut rng);
        let idmgr = IdentityManager::new(group.clone(), &mut rng);
        let idmgr_key = idmgr.verifying_key();
        Self {
            issuer: IssuerService::new(idp, idmgr, seeds.issuer),
            group,
            idmgr_key,
        }
    }

    /// Issues one token per attribute through the issuer's byte protocol
    /// and installs them.
    pub fn onboard(&mut self, subject: &str, attrs: AttributeSet) -> Holder {
        let mut sub = Subscriber::new(attrs.clone());
        let mut openings = BTreeMap::new();
        for (name, value) in attrs.iter() {
            let request = Request::<G>::Issue(IssueRequest {
                subject: subject.to_string(),
                attribute: name.to_string(),
                value,
            })
            .encode(&self.group)
            .expect("issue request encodes");
            let response = self.issuer.handle(&request);
            let Ok(Response::Issue(issued)) = Response::decode(&self.group, &response) else {
                panic!("issuer refused {subject}/{name}");
            };
            openings.insert(name.to_string(), (value, issued.opening.clone()));
            sub.install_token(issued.token, issued.opening)
                .expect("one nym per subject");
        }
        let nym = sub.nym().expect("at least one token").to_string();
        Holder { sub, nym, openings }
    }
}

/// One registration in process: `start`, `service::dispatch`, `complete`.
pub fn register_in_process(
    publisher: &mut Publisher<G>,
    holder: &mut Holder,
    cond: &AttributeCondition,
    rng: &mut StdRng,
) -> Result<bool, PbcdError> {
    let group = publisher.ocbe().group().clone();
    let ell = publisher.ocbe().ell();
    let (request, pending) =
        RegistrationSession::new(&mut holder.sub, group, ell).start(cond, rng)?;
    let response = service::dispatch(publisher, &request, rng);
    pending.complete(&response)
}

/// Wall time from construction to now, less the intervals marked untimed:
/// the definition of `setup_s`.
pub struct SetupClock {
    start: Instant,
    untimed: Duration,
}

impl SetupClock {
    /// Starts the set-up clock.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            untimed: Duration::ZERO,
        }
    }

    /// Runs `f` off the clock (writing generated files, building probes).
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.untimed += t.elapsed();
        out
    }

    /// Set-up time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed() - self.untimed
    }
}

/// How long each set-up phase took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupPhases {
    /// Token issuance for every subject.
    pub issue_tokens: Duration,
    /// Registration of the population (dissemination fixture only).
    pub register_population: Duration,
    /// Broker start: bind, log recovery, relay link and catch-up.
    pub broker_start: Duration,
    /// Relay catch-up alone (`add_peer` to last archive record accepted).
    pub catch_up: Duration,
    /// Client connects (publisher, subscriber, registration endpoint).
    pub connect: Duration,
    /// `RetentionStore::open` on a copy of the archive log (traced runs
    /// only; off the set-up clock).
    pub recover: Duration,
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

pub(crate) fn pinned(config: BrokerConfig) -> BrokerConfig {
    BrokerConfig {
        writer_pool_threads: 1,
        reader_pool_threads: 1,
        ..config
    }
}

/// A fresh directory for this fixture's files, inside the build directory
/// (`CARGO_TARGET_DIR`, else the crate's own `target/`), so the benchmark
/// never writes outside its checkout.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    let dir = base.join("bench-scratch").join(format!(
        "{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The registration fixture.
pub struct RegFixture {
    /// The deployment group.
    pub group: G,
    /// ℓ as the publisher reports it over the socket.
    pub ell: u32,
    /// The publisher; its registration endpoint is what the ops call.
    pub net_pub: NetPublisher<G>,
    /// The generator's one connection to the registration endpoint.
    pub client: RegistrationClient,
    /// The pool of token-holding subjects, in `Inputs::candidates` order.
    pub candidates: Vec<Holder>,
    /// Phase timings of this set-up.
    pub phases: SetupPhases,
    /// Deep-layer probes (traced runs only).
    pub probes: Option<RegProbes>,
    broker: BrokerHandle,
}

impl RegFixture {
    /// Builds the fixture; `probes` adds the shadow service probes use.
    pub fn build(inputs: &Inputs, clock: &mut SetupClock, probes: bool) -> Self {
        let mut phases = SetupPhases::default();
        let conds = Conditions::new();
        let mut auth = Authority::new(&inputs.seeds);
        let publisher =
            Publisher::new(auth.group.clone(), auth.idmgr_key.clone(), conds.policies());

        let candidates = timed(&mut phases.issue_tokens, || {
            inputs
                .candidates
                .iter()
                .map(|c| {
                    auth.onboard(
                        &c.subject,
                        AttributeSet::new()
                            .with_str("role", c.role)
                            .with("clearance", c.clearance),
                    )
                })
                .collect()
        });

        // `NetPublisher` is a broker client first; registration rides its
        // own socket. The broker stays idle throughout.
        let broker = timed(&mut phases.broker_start, || {
            Broker::bind_with("127.0.0.1:0", pinned(BrokerConfig::default())).expect("bind broker")
        });
        let (net_pub, client, ell) = timed(&mut phases.connect, || {
            let mut net_pub = NetPublisher::connect_service(
                PublisherService::new(publisher, inputs.seeds.service),
                broker.addr(),
            )
            .expect("publisher connects");
            let addr = net_pub
                .serve_registration("127.0.0.1:0", inputs.seeds.registration)
                .expect("bind registration endpoint");
            let mut client = RegistrationClient::connect(addr).expect("client connects");
            let info = session::fetch_conditions(&auth.group, &mut client).expect("conditions");
            (net_pub, client, info.ell)
        });

        let probes = probes.then(|| {
            clock.untimed(|| RegProbes::new(&auth, conds.policies(), inputs.seeds.service))
        });
        Self {
            group: auth.group,
            ell,
            net_pub,
            client,
            candidates,
            phases,
            probes,
            broker,
        }
    }

    /// Closes every connection and joins every thread.
    pub fn teardown(self) {
        let _ = self.client.close();
        let _ = self.net_pub.disconnect();
        self.broker.shutdown();
    }
}

/// The dissemination fixture.
pub struct PubFixture {
    /// The deployment group.
    pub group: G,
    /// ℓ of the publisher's OCBE system.
    pub ell: u32,
    /// The public policy set.
    pub policies: PolicySet,
    /// The conditions the policies are built from.
    pub conds: Conditions,
    /// The signing publisher, connected to the origin.
    pub net_pub: NetPublisher<G>,
    /// The reader (population index 0), subscribed at the edge.
    pub net_sub: NetSubscriber<G>,
    /// Doctors eligible for revocation, oldest first.
    pub doctors: VecDeque<Holder>,
    /// Fresh doctors, tokens in hand, waiting to join.
    pub joiners: VecDeque<Holder>,
    /// The origin broker.
    pub origin: BrokerHandle,
    /// The edge broker.
    pub edge: BrokerHandle,
    /// Phase timings of this set-up.
    pub phases: SetupPhases,
    /// Bytes around the container on the generator's connections: publish
    /// frame header and signature, ack frame, deliver frame header.
    pub framing: u64,
    /// Deep-layer probes (traced runs only).
    pub probes: Option<PubProbes>,
    scratch: PathBuf,
}

impl PubFixture {
    /// Builds the fixture for publishing `doc`; `joiners` fresh doctors
    /// are onboarded for churn; `probes` adds the shadow publisher, probe
    /// connection and scratch store the traced pass uses.
    pub fn build(
        inputs: &Inputs,
        clock: &mut SetupClock,
        doc: Doc,
        joiners: usize,
        probes: bool,
    ) -> Self {
        let mut phases = SetupPhases::default();
        let conds = Conditions::new();
        let policies = conds.policies();
        let mut auth = Authority::new(&inputs.seeds);
        let group = auth.group.clone();
        let mut publisher = Publisher::new(group.clone(), auth.idmgr_key.clone(), policies.clone());
        let ell = publisher.ocbe().ell();
        let mut rng = StdRng::seed_from_u64(inputs.seeds.ops ^ 0x5e7);

        let (mut members, joiners): (Vec<Holder>, VecDeque<Holder>) =
            timed(&mut phases.issue_tokens, || {
                let members = inputs
                    .population
                    .iter()
                    .map(|p| {
                        auth.onboard(
                            &p.subject,
                            AttributeSet::new()
                                .with_str("role", p.role)
                                .with_str("unit", p.unit)
                                .with_str("team", p.team)
                                .with("clearance", p.clearance),
                        )
                    })
                    .collect();
                let joiners = (0..joiners)
                    .map(|i| {
                        auth.onboard(
                            &inputs.joiner_subject(i),
                            AttributeSet::new().with_str("role", "doctor"),
                        )
                    })
                    .collect();
                (members, joiners)
            });

        // Each member registers for the condition matching its own value
        // of every attribute: 3 EQ + 1 GE, every EQ one extracting a CSS.
        timed(&mut phases.register_population, || {
            for (person, holder) in inputs.population.iter().zip(&mut members) {
                let mine = [
                    if person.role == "doctor" {
                        &conds.doctor
                    } else {
                        &conds.nurse
                    },
                    if person.unit == "icu" {
                        &conds.icu
                    } else {
                        &conds.general
                    },
                    if person.team == "oncall" {
                        &conds.oncall
                    } else {
                        &conds.day
                    },
                ];
                for cond in mine {
                    let got = register_in_process(&mut publisher, holder, cond, &mut rng)
                        .expect("population registers");
                    assert!(got, "{} must extract {cond}", person.subject);
                }
                let got = register_in_process(&mut publisher, holder, &conds.clearance, &mut rng)
                    .expect("population registers");
                assert_eq!(
                    got,
                    person.clearance >= 5,
                    "GE envelope opens iff qualified"
                );
            }
        });
        for doc in [Doc::Ward, Doc::Small, Doc::Bulk] {
            for (acp, rows) in conds.acps(doc) {
                let got = publisher.shared_css_table().nyms_with_all(&acp).len();
                assert_eq!(got, rows, "{} rows for {acp:?}", doc.name());
            }
        }

        let scratch = scratch_dir();
        let log_path = scratch.join("origin.log");
        clock
            .untimed(|| std::fs::write(&log_path, &inputs.archive_log).expect("write archive log"));
        if probes {
            phases.recover =
                clock.untimed(|| PubProbes::time_recovery(&scratch, &inputs.archive_log));
        }

        let signing =
            SigningKey::generate(&group, &mut StdRng::seed_from_u64(inputs.seeds.signing));
        let signature_len = signing.sign(&group, &mut rng, b"").to_bytes(&group).len();
        let ack = Frame::Ack {
            epoch: 0,
            fanout: 0,
        }
        .encode()
        .expect("ack encodes");
        let framing = 4
            + signed_container_offset(KEY_ID, signature_len)
            + 4
            + ack.len()
            + 4
            + CONTAINER_OFFSET;
        let (origin, edge) = timed(&mut phases.broker_start, || {
            let directory =
                PublisherDirectory::new(group.clone()).with_key(KEY_ID, signing.verifying_key());
            let origin = Broker::bind_with(
                "127.0.0.1:0",
                pinned(BrokerConfig {
                    publisher_auth: Some(Arc::new(directory)),
                    store_path: Some(log_path),
                    fsync: FsyncPolicy::Off,
                    history_depth: gen::ARCHIVE_RECORDS / gen::ARCHIVE_DOCS,
                    relay: Some(RelayConfig {
                        accept_peers: false,
                        ..RelayConfig::new("origin")
                    }),
                    ..BrokerConfig::default()
                }),
            )
            .expect("bind origin");
            assert_eq!(
                origin.recovery().records_recovered,
                gen::ARCHIVE_RECORDS as u64,
                "origin recovers the whole archive"
            );
            let edge = Broker::bind_with(
                "127.0.0.1:0",
                pinned(BrokerConfig {
                    history_depth: gen::ARCHIVE_RECORDS / gen::ARCHIVE_DOCS,
                    relay: Some(RelayConfig::new("edge")),
                    ..BrokerConfig::default()
                }),
            )
            .expect("bind edge");
            let t = Instant::now();
            origin.add_peer(edge.addr().to_string()).expect("peer edge");
            wait_until("relay catch-up", || {
                edge.stats().relays_accepted == gen::ARCHIVE_RECORDS as u64
            });
            phases.catch_up = t.elapsed();
            (origin, edge)
        });

        let probes = probes.then(|| {
            clock.untimed(|| {
                PubProbes::new(
                    &auth,
                    &conds,
                    inputs,
                    &members,
                    doc,
                    signing.clone(),
                    &scratch,
                )
            })
        });

        let reader = members.remove(0);
        let doctors: VecDeque<Holder> = members
            .drain(gen::ICU_DOCTORS - 1..gen::DOCTORS - 1)
            .collect();
        let (net_pub, net_sub) = timed(&mut phases.connect, || {
            let net_pub = NetPublisher::connect_service(
                PublisherService::new(publisher, inputs.seeds.service),
                origin.addr(),
            )
            .expect("publisher connects")
            .with_signing_key(KEY_ID, signing);
            let net_sub = NetSubscriber::connect(reader.sub, edge.addr(), &[doc.name()])
                .expect("reader connects");
            net_sub
                .set_read_timeout(Some(Duration::from_secs(20)))
                .expect("read timeout");
            (net_pub, net_sub)
        });

        Self {
            group,
            ell,
            policies,
            conds,
            net_pub,
            net_sub,
            doctors,
            joiners,
            origin,
            edge,
            phases,
            framing: framing as u64,
            probes,
            scratch,
        }
    }

    /// Closes every connection, joins every thread, removes the files.
    pub fn teardown(self) {
        if let Some(probes) = self.probes {
            probes.teardown();
        }
        let _ = self.net_sub.disconnect();
        let _ = self.net_pub.disconnect();
        self.origin.shutdown();
        self.edge.shutdown();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
