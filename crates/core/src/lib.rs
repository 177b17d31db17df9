//! # pbcd-core
//!
//! The end-to-end PBCD system (paper §III overview, §V scheme):
//!
//! * [`idp`] — Identity Providers issuing certified attribute assertions,
//! * [`idmgr`] — the Identity Manager turning assertions into signed
//!   identity tokens over Pedersen commitments,
//! * [`token`] — the token format `IT = (nym, id-tag, c, σ)`,
//! * [`publisher`] — policy owner: oblivious CSS registration (OCBE),
//!   the CSS table `T`, per-configuration ACV-BGKM rekey and broadcast,
//! * [`subscriber`] — receiver side: registration, key derivation from
//!   public broadcast values, decryption and document reassembly,
//! * [`proto`] — the transport-agnostic protocol layer: typed,
//!   strictly-decoded request/response messages for issuance, the
//!   conditions query and oblivious registration,
//! * [`service`] — [`PublisherService`]/[`IssuerService`]: total
//!   bytes-in/bytes-out handlers over [`proto`],
//! * [`session`] — the session-typed subscriber driver
//!   ([`RegistrationSession`] → [`PendingRegistration`]) plus TCP helpers,
//! * [`harness`] — a wired-up system for examples, tests and benches
//!   (registration runs through the byte-level protocol even in-process),
//! * [`net`] — [`NetPublisher`]/[`NetSubscriber`] adapters: dissemination
//!   over an untrusted `pbcd_net` broker, registration over a direct
//!   publisher socket the broker never sees.
//!
//! Privacy property carried end-to-end: the publisher sees pseudonyms,
//! commitments and proofs — never an attribute value, and never whether a
//! given registration actually yielded a usable CSS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod harness;
pub mod idmgr;
pub mod idp;
pub mod net;
pub mod proto;
pub mod publisher;
pub mod service;
pub mod session;
pub mod subscriber;
pub mod token;

pub use error::PbcdError;
pub use harness::SystemHarness;
pub use idmgr::IdentityManager;
pub use idp::{AttributeAssertion, IdentityProvider};
pub use net::{NetPublisher, NetSubscriber};
pub use publisher::Registrar;
pub use publisher::{Publisher, PublisherConfig};
pub use service::{IssueVerifier, IssuerService, PublisherService, ServiceStats};
pub use session::{
    BatchRegistrationSession, PendingBatchRegistration, PendingRegistration, RegistrationSession,
};
pub use subscriber::Subscriber;
pub use token::IdentityToken;
