//! # pbcd — privacy-preserving policy-based content dissemination
//!
//! Umbrella crate for the Rust reproduction of Shang, Nabeel, Paci,
//! Bertino: *"A Privacy-Preserving Approach to Policy-Based Content
//! Dissemination"* (ICDE 2010). Re-exports the full workspace API:
//!
//! * [`math`] — big integers, Montgomery fields, `F_q` linear algebra,
//! * [`crypto`] — SHA-256, HMAC, HKDF, ChaCha20-Poly1305 (from scratch),
//! * [`group`] — P-256 and RFC 5114 modp prime-order groups, Schnorr sigs,
//! * [`commit`] — Pedersen commitments,
//! * [`ocbe`] — oblivious commitment-based envelopes (EQ/GE/LE/GT/LT/NE),
//! * [`policy`] — conditions, ACPs, policy configurations, dominance,
//! * [`docs`] — XML-lite, segmentation, broadcast containers,
//! * [`gkm`] — **ACV-BGKM** (the paper's contribution) plus marker,
//!   secure-lock, LKH and simplistic baselines,
//! * [`core`] — IdP / IdMgr / Publisher / Subscriber end-to-end system,
//!   including the transport-agnostic protocol layer (`core::proto`,
//!   `core::service`, `core::session`),
//! * [`net`] — untrusted TCP dissemination broker + client endpoints,
//!   plus the direct request/response transport for registration.
//!
//! ## Quickstart
//!
//! ```
//! use pbcd::core::SystemHarness;
//! use pbcd::policy::{AccessControlPolicy, AttributeSet, PolicySet};
//! use pbcd::docs::Element;
//!
//! // One policy: doctors read the record.
//! let mut policies = PolicySet::new();
//! policies.add(AccessControlPolicy::parse(
//!     "role = 'doctor'", &["Record"], "doc.xml").unwrap());
//!
//! let mut sys = SystemHarness::new_p256(policies, 42);
//! let doctor = sys.subscribe("alice", AttributeSet::new().with_str("role", "doctor"));
//! let outsider = sys.subscribe("mallory", AttributeSet::new().with_str("role", "clerk"));
//!
//! let doc = Element::new("root").child(Element::new("Record").text("diagnosis"));
//! let broadcast = sys.publisher.broadcast(&doc, "doc.xml", &mut sys.rng);
//!
//! let policies = sys.publisher.policies();
//! let seen = doctor.decrypt_broadcast(&broadcast, policies).unwrap();
//! assert!(seen.find("Record").is_some());
//! let blocked = outsider.decrypt_broadcast(&broadcast, policies).unwrap();
//! assert!(blocked.find("Record").is_none());
//! ```

#![forbid(unsafe_code)]

pub use pbcd_commit as commit;
pub use pbcd_core as core;
pub use pbcd_crypto as crypto;
pub use pbcd_docs as docs;
pub use pbcd_gkm as gkm;
pub use pbcd_group as group;
pub use pbcd_math as math;
pub use pbcd_net as net;
pub use pbcd_ocbe as ocbe;
pub use pbcd_policy as policy;
pub use pbcd_telemetry as telemetry;
