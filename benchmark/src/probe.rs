//! Deep-layer probes of the traced pass.
//!
//! The benchmark measures every layer from outside, through public
//! functions. The production calls of an op are wrapped in pipeline spans;
//! what happens *inside* them (on the far side of a socket, or below a
//! private call) is measured by running the same public function the
//! system runs, on the op's own inputs, once the op's clock has stopped.
//! Probes work on a shadow publisher with the same policies and the same
//! row counts, a probe broker with the origin's configuration and a scratch
//! retention store, so they never touch the state the ops run on.

use crate::fixture::{Authority, Conditions, Holder, G, KEY_ID};
use crate::gen::{Doc, Inputs};
use crate::trace::Tracer;
use pbcd_core::proto::{Request, Response};
use pbcd_core::token::token_signing_payload;
use pbcd_core::{Publisher, PublisherService};
use pbcd_crypto::AuthKey;
use pbcd_docs::{parse, reassemble, segment, BroadcastContainer, Element};
use pbcd_gkm::{AccessRow, AcvBgkm, AcvPublicInfo, Nym};
use pbcd_group::{CyclicGroup, Signature, SigningKey, VerifyingKey};
use pbcd_math::linalg::Matrix;
use pbcd_net::frame::{
    deliver_body, publish_auth_message, signed_publish_body, ConfigSummary, Frame,
};
use pbcd_net::{
    Broker, BrokerClient, BrokerConfig, BrokerHandle, FsyncPolicy, PeerRole, PublisherDirectory,
    RetentionStore,
};
use pbcd_ocbe::OcbeSystem;
use pbcd_policy::{AttributeCondition, PolicySet};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts a probe reads off the op's messages.
pub type Counts = BTreeMap<&'static str, f64>;

/// Unit costs of the group and commitment layers: one call each, no
/// parent, so they inform without entering the self-time accounting.
fn unit_costs(tr: &mut Tracer, ocbe: &OcbeSystem<G>, rng: &mut StdRng) {
    let group = ocbe.group();
    let k = group.random_nonzero_scalar(rng);
    let h = group.pedersen_h();
    tr.probe("group.exp_var", None, || group.exp(&h, &k));
    tr.probe("group.exp_fixed", None, || group.exp_g(&k));
    tr.probe("commit.commit", None, || ocbe.pedersen().commit(&k, rng));
}

/// Probes of the registration workloads.
pub struct RegProbes {
    shadow: PublisherService<G>,
    ocbe: OcbeSystem<G>,
    idmgr_key: VerifyingKey<G>,
    signer: SigningKey<G>,
    rng: StdRng,
}

impl RegProbes {
    /// A shadow service over the same policies and identity manager key.
    pub fn new(auth: &Authority, policies: PolicySet, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9b0b);
        let shadow = Publisher::new(auth.group.clone(), auth.idmgr_key.clone(), policies);
        let ocbe = shadow.ocbe().clone();
        Self {
            shadow: PublisherService::new(shadow, seed),
            ocbe,
            idmgr_key: auth.idmgr_key.clone(),
            signer: SigningKey::generate(&auth.group, &mut rng),
            rng,
        }
    }

    /// Re-runs the layers under one registration on its own messages.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        holder: &Holder,
        cond: &AttributeCondition,
        request: &[u8],
        response: &[u8],
    ) -> Counts {
        const START: Option<&str> = Some("core.session.start");
        const HANDLE: Option<&str> = Some("core.service.handle_register");
        const COMPLETE: Option<&str> = Some("core.session.complete");
        let Self {
            shadow,
            ocbe,
            idmgr_key,
            signer,
            rng,
        } = self;
        let group = ocbe.group().clone();
        let predicate = cond.predicate();
        let (x, opening) = &holder.openings[&cond.attribute];

        // The publisher's side of the socket: same request bytes, no socket.
        tr.probe(
            "core.service.handle_register",
            Some("net.direct.call"),
            || shadow.handle(request),
        );
        let Ok(Request::Register(req)) = tr.probe("core.proto.codec", HANDLE, || {
            Request::decode(&group, request)
        }) else {
            panic!("the op's own request decodes");
        };
        tr.probe("group.schnorr.verify", HANDLE, || {
            req.token.verify(ocbe.pedersen(), idmgr_key)
        })
        .expect("the op's own token verifies");
        // Compose against a proof whose secrets the probe holds, so the
        // envelope can be opened below.
        let (proof, secrets) = tr
            .probe("ocbe.receiver_prepare", START, || {
                ocbe.receiver_prepare(*x, opening, &predicate, rng)
            })
            .expect("in-range attribute value");
        let mut css = [0u8; 16];
        rng.fill_bytes(&mut css);
        let envelope = tr
            .probe("ocbe.sender_compose", HANDLE, || {
                ocbe.sender_compose(&req.token.commitment, &predicate, &proof, &css, rng)
            })
            .expect("well-formed proof");
        tr.probe("ocbe.receiver_open", COMPLETE, || {
            ocbe.receiver_open(&envelope, opening, &secrets)
        });
        let payload = token_signing_payload(
            ocbe.pedersen(),
            &req.token.nym,
            &req.token.id_tag,
            &req.token.commitment,
        );
        tr.probe("group.schnorr.sign", None, || {
            signer.sign(&group, rng, &payload)
        });
        tr.probe("core.proto.codec", START, || {
            Request::Register(req).encode(&group)
        })
        .expect("request re-encodes");
        let Ok(Response::Register(resp)) = tr.probe("core.proto.codec", COMPLETE, || {
            Response::decode(&group, response)
        }) else {
            panic!("the op's own response decodes");
        };
        let envelope_bytes = resp.envelope.size_bytes(&group);
        tr.probe("core.proto.codec", HANDLE, || {
            Response::Register(resp).encode(&group)
        })
        .expect("response re-encodes");
        unit_costs(tr, ocbe, rng);

        Counts::from([
            ("ocbe.envelope_bytes", envelope_bytes as f64),
            ("core.proto.request_bytes", request.len() as f64),
            ("core.proto.response_bytes", response.len() as f64),
        ])
    }
}

/// Probes of the dissemination workloads.
pub struct PubProbes {
    shadow: Publisher<G>,
    ocbe: OcbeSystem<G>,
    gkm: AcvBgkm,
    policies: PolicySet,
    doc: Doc,
    /// One entry per policy configuration of the document: its tag, its
    /// conditions, and the reader's CSS concatenation for them.
    plan: Vec<(&'static str, Vec<AttributeCondition>, Vec<u8>)>,
    reader_nym: String,
    doctor: AttributeCondition,
    client: BrokerClient,
    broker: BrokerHandle,
    signing: SigningKey<G>,
    store: RetentionStore,
    rng: StdRng,
}

impl PubProbes {
    /// Times `RetentionStore::open` on a copy of the archive log.
    pub fn time_recovery(scratch: &Path, log: &[u8]) -> Duration {
        let path = scratch.join("recover-probe.log");
        std::fs::write(&path, log).expect("write probe log");
        let t = Instant::now();
        let store = RetentionStore::open(&path, 64, u64::MAX, FsyncPolicy::Off).expect("open log");
        let elapsed = t.elapsed();
        assert_eq!(store.recovery().truncated_bytes, 0, "archive log is whole");
        drop(store);
        let _ = std::fs::remove_file(&path);
        elapsed
    }

    /// Builds the shadow publisher (same policies, same rows per
    /// configuration), the probe connection and the scratch store.
    pub fn new(
        auth: &Authority,
        conds: &Conditions,
        inputs: &Inputs,
        members: &[Holder],
        doc: Doc,
        signing: SigningKey<G>,
        scratch: &Path,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(inputs.seeds.ops ^ 0x9b0b);
        let policies = conds.policies();
        let shadow = Publisher::new(auth.group.clone(), auth.idmgr_key.clone(), policies.clone());
        let mirrored = [&conds.doctor, &conds.icu, &conds.oncall];
        for holder in members {
            for cond in mirrored {
                if holder.sub.has_css(cond) {
                    shadow
                        .shared_css_table()
                        .issue(&Nym::new(&holder.nym), cond, &mut rng);
                }
            }
        }
        let reader = &members[0];
        let plan = conds
            .acps(doc)
            .into_iter()
            .zip(doc.tags())
            .map(|((acp, _), tag)| {
                let css = acp
                    .iter()
                    .flat_map(|c| reader.sub.css_snapshot(c).expect("reader holds every CSS"))
                    .collect();
                (tag, acp, css)
            })
            .collect();
        // A broker configured like the origin — publisher auth, durable log
        // — with nothing downstream: what it takes to publish a container
        // that is already built, up to the ack, and no more.
        let directory =
            PublisherDirectory::new(auth.group.clone()).with_key(KEY_ID, signing.verifying_key());
        let broker = Broker::bind_with(
            "127.0.0.1:0",
            crate::fixture::pinned(BrokerConfig {
                publisher_auth: Some(Arc::new(directory)),
                store_path: Some(scratch.join("publish-probe.log")),
                fsync: FsyncPolicy::Off,
                history_depth: crate::gen::ARCHIVE_RECORDS / crate::gen::ARCHIVE_DOCS,
                ..BrokerConfig::default()
            }),
        )
        .expect("bind probe broker");
        let store = RetentionStore::open(
            scratch.join("retain-probe.log"),
            1,
            u64::MAX,
            FsyncPolicy::Off,
        )
        .expect("open scratch store");
        Self {
            ocbe: shadow.ocbe().clone(),
            gkm: shadow.gkm().clone(),
            shadow,
            policies,
            doc,
            plan,
            reader_nym: reader.nym.clone(),
            doctor: conds.doctor.clone(),
            client: BrokerClient::connect(broker.addr(), PeerRole::Publisher)
                .expect("probe connects"),
            broker,
            signing,
            store,
            rng,
        }
    }

    /// Keeps the shadow table in step with a revoke + join on the real one.
    pub fn mirror_churn(&mut self, revoked: &str, joined: &str) {
        self.shadow.revoke_subscriber(revoked);
        self.shadow
            .shared_css_table()
            .issue(&Nym::new(joined), &self.doctor, &mut self.rng);
    }

    /// Re-runs the layers under one publish → deliver on its own document
    /// and the container the reader received.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        doc: &Element,
        container: &BroadcastContainer,
    ) -> Counts {
        const PUBLISH: Option<&str> = Some("core.publisher.broadcast");
        const SEND: Option<&str> = Some("net.client.publish_signed");
        const DECRYPT: Option<&str> = Some("core.subscriber.decrypt_broadcast");
        let Self {
            shadow,
            ocbe,
            gkm,
            policies,
            plan,
            reader_nym,
            client,
            signing,
            store,
            rng,
            ..
        } = self;
        let group = ocbe.group().clone();
        let name = self.doc.name();
        let mut counts = Counts::new();

        // --- Publisher: segment, classify, rekey, encrypt. ---------------
        tr.probe(
            "core.publisher.broadcast",
            Some("core.net.broadcast"),
            || shadow.broadcast(doc, name, rng),
        );
        let tags: Vec<&str> = plan.iter().map(|(tag, _, _)| *tag).collect();
        let (segmented, xml) = tr.probe("docs.segment", PUBLISH, || {
            let s = segment(doc, name, &tags);
            let xml: Vec<String> = s.segments.iter().map(|g| g.content.to_xml()).collect();
            let _skeleton = s.skeleton.to_xml();
            (s, xml)
        });
        tr.probe("policy.configuration_of", PUBLISH, || {
            for seg in &segmented.segments {
                std::hint::black_box(policies.configuration_of(&seg.tag));
            }
        });
        let (mut rows_total, mut plain_bytes, mut encrypt_s) = (0usize, 0usize, 0f64);
        for (tag, acp, _) in plan.iter() {
            let table = shadow.shared_css_table();
            let rows: Vec<AccessRow> = table
                .nyms_with_all(acp)
                .into_iter()
                .filter_map(|nym| {
                    Some(AccessRow {
                        css_concat: table.css_concat(&nym, acp)?,
                        nym: nym.0,
                    })
                })
                .collect();
            rows_total += rows.len();
            let (key, info) = tr.probe("gkm.acv.rekey", PUBLISH, || gkm.rekey(&rows, rng));
            // The solve inside the rekey, on a matrix of the same shape:
            // one row [1, a₁ … a_N] per access row.
            let field = gkm.field();
            let matrix = Matrix::from_fn(field, rows.len(), info.zs.len() + 1, |_, j| {
                if j == 0 {
                    field.one()
                } else {
                    field.random(rng)
                }
            });
            tr.probe("math.linalg.null_vector", Some("gkm.acv.rekey"), || {
                matrix.random_null_vector(rng)
            });
            let t = Instant::now();
            tr.probe("crypto.authenc.encrypt", PUBLISH, || {
                let key = AuthKey::from_master(&key);
                for (seg, xml) in segmented.segments.iter().zip(&xml) {
                    if seg.tag == *tag {
                        plain_bytes += xml.len();
                        std::hint::black_box(key.encrypt(rng, xml.as_bytes()));
                    }
                }
            });
            encrypt_s += t.elapsed().as_secs_f64();
        }
        counts.insert("gkm.acv.rows", rows_total as f64);
        counts.insert(
            "crypto.authenc.mb_per_s",
            plain_bytes as f64 / 1e6 / encrypt_s,
        );

        // --- Wire: encode, sign, frame, verify, append, and the real
        // client call with the container already built. ------------------
        let bytes = tr
            .probe("docs.container.encode", SEND, || container.encode())
            .expect("container re-encodes");
        let (message, signature) = tr.probe("group.schnorr.sign", SEND, || {
            let message = publish_auth_message(name, container.epoch, &bytes);
            let signature = signing.sign(&group, rng, &message).to_bytes(&group);
            (message, signature)
        });
        let deliver = tr.probe("net.frame.codec", SEND, || {
            let body = signed_publish_body(KEY_ID, &signature, &bytes);
            std::hint::black_box(Frame::decode(&body)).expect("publish frame decodes");
            deliver_body(&bytes)
        });
        tr.probe("group.schnorr.verify", SEND, || {
            let sig = Signature::from_bytes(&group, &signature).expect("own signature parses");
            assert!(signing.verifying_key().verify(&group, &message, &sig));
        });
        let summary = ConfigSummary {
            document_name: name.to_string(),
            epoch: container.epoch,
            config_ids: container.groups.iter().map(|g| g.config_id).collect(),
            size_bytes: bytes.len() as u64,
        };
        tr.probe("net.store.retain", SEND, || {
            store.retain(summary, Arc::new(deliver))
        })
        .expect("scratch store appends");
        tr.probe(
            "net.client.publish_signed",
            Some("core.net.broadcast"),
            || client.publish_signed(&group, KEY_ID, signing, container, rng),
        )
        .expect("probe publish accepted");

        // --- Subscriber: decode, derive, decrypt, reassemble. ------------
        tr.probe("docs.container.decode", Some("net.deliver_wait"), || {
            BroadcastContainer::decode(&bytes)
        })
        .expect("container decodes");
        let mut recovered = BTreeMap::new();
        for enc in &container.groups {
            let (_, _, css) = plan
                .iter()
                .find(|(tag, _, _)| enc.segments.first().is_some_and(|s| s.tag == *tag))
                .expect("every group carries a planned tag");
            let info = AcvPublicInfo::decode(&enc.key_info).expect("key info decodes");
            let key = tr.probe("gkm.acv.derive_key", DECRYPT, || {
                pbcd_gkm::BroadcastGkm::derive_key(gkm, &info, reader_nym, css)
            });
            let key = AuthKey::from_master(&key.expect("ACV always yields a candidate"));
            let plain: Vec<(u32, Vec<u8>)> = tr.probe("crypto.authenc.decrypt", DECRYPT, || {
                enc.segments
                    .iter()
                    .filter_map(|s| Some((s.segment_id, key.decrypt(&s.ciphertext).ok()?)))
                    .collect()
            });
            tr.probe("docs.reassemble", DECRYPT, || {
                for (id, bytes) in plain {
                    let xml = String::from_utf8(bytes).expect("utf-8 plaintext");
                    recovered.insert(id, parse(&xml).expect("segment parses"));
                }
            });
        }
        tr.probe("docs.reassemble", DECRYPT, || {
            let skeleton = parse(&container.skeleton_xml).expect("skeleton parses");
            std::hint::black_box(reassemble(&skeleton, &recovered));
        });
        unit_costs(tr, ocbe, rng);

        let info_bytes: usize = container.groups.iter().map(|g| g.key_info.len()).sum();
        counts.insert("gkm.acv.info_bytes", info_bytes as f64);
        counts.insert("docs.container_bytes", bytes.len() as f64);
        counts
    }

    /// Says goodbye on the probe connection and stops the probe broker.
    pub fn teardown(self) {
        let _ = self.client.bye();
        self.broker.shutdown();
    }
}
