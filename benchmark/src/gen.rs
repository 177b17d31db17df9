//! Seeded input generation.
//!
//! Everything the system under test is fed comes from here and depends on
//! the seed only: subject names, attribute values, document text, the
//! archive log the origin broker recovers from, and the seeds handed to
//! the system's own `StdRng`s. The system never sees a workload name.
//!
//! Every *size* and every *count* is fixed by the shapes below, not by the
//! seed, so op counts, wire bytes and row counts repeat across seeds while
//! the bytes themselves differ.

use pbcd_docs::{BroadcastContainer, Element, EncryptedGroup, EncryptedSegment};
use pbcd_net::frame::deliver_body;
use pbcd_net::store::encode_record;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Subscribers onboarded into the dissemination fixture.
pub const POPULATION: usize = 128;
/// ICU doctors: permanent staff, never revoked; index 0 is the reader.
pub const ICU_DOCTORS: usize = 16;
/// Doctors in total (`role = doctor` rows of `ward.xml`).
pub const DOCTORS: usize = 96;
/// Members of the on-call team (the first few ICU doctors).
pub const ONCALL: usize = 4;
/// Subjects in the registration pool.
pub const CANDIDATES: usize = 2048;
/// Documents in the archive log the origin broker starts on.
pub const ARCHIVE_DOCS: usize = 64;
/// Records in the archive log.
pub const ARCHIVE_RECORDS: usize = 4096;
/// Bytes of one archive log record.
pub const ARCHIVE_RECORD_BYTES: usize = 1024;

/// The three published documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Doc {
    /// 1 KiB, two configurations (96 and 48 rows).
    Ward,
    /// 256 B, one segment, one configuration of 4 rows.
    Small,
    /// 256 KiB, 16 segments of 16 KiB, two configurations (16 and 4 rows).
    Bulk,
}

impl Doc {
    /// The document name policies and subscriptions use.
    pub fn name(self) -> &'static str {
        match self {
            Doc::Ward => "ward.xml",
            Doc::Small => "small.xml",
            Doc::Bulk => "bulk.xml",
        }
    }

    /// Exact length of the serialized plaintext document.
    pub fn xml_bytes(self) -> usize {
        match self {
            Doc::Ward => 1024,
            Doc::Small => 256,
            Doc::Bulk => 256 * 1024,
        }
    }

    /// `(tag, count)` of the protected subdocuments, in document order.
    fn segments(self) -> &'static [(&'static str, usize)] {
        match self {
            Doc::Ward => &[("Diagnosis", 1), ("Billing", 1)],
            Doc::Small => &[("Note", 1)],
            Doc::Bulk => &[("Scan", 12), ("Summary", 4)],
        }
    }

    /// The protected tags, in document order.
    pub fn tags(self) -> Vec<&'static str> {
        self.segments().iter().map(|(tag, _)| *tag).collect()
    }

    fn root(self) -> &'static str {
        match self {
            Doc::Ward => "WardReport",
            Doc::Small => "Memo",
            Doc::Bulk => "Study",
        }
    }
}

/// One member of the dissemination population.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Person {
    /// Subject name presented to the issuer.
    pub subject: String,
    /// `doctor` or `nurse`.
    pub role: &'static str,
    /// `icu` or `general`.
    pub unit: &'static str,
    /// `oncall` or `day`.
    pub team: &'static str,
    /// 0..=9; `clearance >= 5` is the GE condition.
    pub clearance: u64,
}

/// One subject of the registration pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Subject name presented to the issuer.
    pub subject: String,
    /// `doctor` when qualifying, `nurse` otherwise.
    pub role: &'static str,
    /// 5..=9 when qualifying, 0..=4 otherwise.
    pub clearance: u64,
    /// Whether the subject satisfies `role = doctor` and `clearance >= 5`.
    pub qualifies: bool,
}

/// Seeds handed to the system's own generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// IdP and IdMgr key generation.
    pub authority: u64,
    /// `IssuerService` RNG.
    pub issuer: u64,
    /// `PublisherService` RNG.
    pub service: u64,
    /// Reseed applied by `serve_registration`.
    pub registration: u64,
    /// Publisher signing key.
    pub signing: u64,
    /// The generator thread's op RNG (proofs, rekey nonces, signatures).
    pub ops: u64,
}

/// All inputs of one run.
pub struct Inputs {
    /// The `--seed` these were made from.
    pub seed: u64,
    /// Seeds for the system's RNGs.
    pub seeds: Seeds,
    /// The dissemination population, in fixture order.
    pub population: Vec<Person>,
    /// The registration pool.
    pub candidates: Vec<Candidate>,
    /// A permutation of the pool; op `k` registers `order[k % CANDIDATES]`.
    pub order: Vec<u32>,
    /// The archive log: `ARCHIVE_RECORDS` records of `ARCHIVE_RECORD_BYTES`.
    pub archive_log: Vec<u8>,
    word: String,
    pool: Vec<u8>,
}

const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

fn random_text(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds = Seeds {
            authority: rng.next_u64(),
            issuer: rng.next_u64(),
            service: rng.next_u64(),
            registration: rng.next_u64(),
            signing: rng.next_u64(),
            ops: rng.next_u64(),
        };
        let word = String::from_utf8(random_text(&mut rng, 8)).expect("ascii");

        let population = (0..POPULATION)
            .map(|i| Person {
                subject: format!("staff-{word}-{i:04}"),
                role: if i < DOCTORS { "doctor" } else { "nurse" },
                unit: if !(ICU_DOCTORS..DOCTORS).contains(&i) {
                    "icu"
                } else {
                    "general"
                },
                team: if i < ONCALL { "oncall" } else { "day" },
                clearance: if i == 0 { 7 } else { rng.gen_range(0..10u64) },
            })
            .collect();

        let candidates = (0..CANDIDATES)
            .map(|i| {
                let qualifies = i % 4 != 3;
                Candidate {
                    subject: format!("cand-{word}-{i:04}"),
                    role: if qualifies { "doctor" } else { "nurse" },
                    clearance: rng.gen_range(0..5u64) + if qualifies { 5 } else { 0 },
                    qualifies,
                }
            })
            .collect();

        let mut order: Vec<u32> = (0..CANDIDATES as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }

        let pool = random_text(&mut rng, 1 << 20);
        let archive_log = archive_log(&mut rng);
        Inputs {
            seed,
            seeds,
            population,
            candidates,
            order,
            archive_log,
            word,
            pool,
        }
    }

    /// Subject name of the `i`-th fresh doctor joining under churn.
    pub fn joiner_subject(&self, i: usize) -> String {
        format!("join-{}-{i:04}", self.word)
    }

    /// `len` bytes of text for `(op, slot)`: a window of the seeded pool.
    fn text(&self, op: u64, slot: u64, len: usize) -> &str {
        let mix = (op.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ slot.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(self.seed);
        let off = (mix % (self.pool.len() - len) as u64) as usize;
        std::str::from_utf8(&self.pool[off..off + len]).expect("ascii pool")
    }

    /// The plaintext of `doc` published by op `op`: exactly
    /// [`Doc::xml_bytes`] bytes once serialized, different text per op.
    pub fn document(&self, doc: Doc, op: u64) -> Element {
        let slots: usize = doc.segments().iter().map(|(_, n)| n).sum();
        let build = |lens: &[usize]| {
            let mut root = Element::new(doc.root()).attr("seq", &format!("{op:08}"));
            let mut slot = 0;
            for (tag, count) in doc.segments() {
                for _ in 0..*count {
                    root =
                        root.child(Element::new(tag).text(self.text(op, slot as u64, lens[slot])));
                    slot += 1;
                }
            }
            root
        };
        // One byte of text per slot measures the markup; the rest of the
        // budget is split evenly, the remainder going to the first slot.
        let markup = build(&vec![1; slots]).to_xml().len() - slots;
        let budget = doc.xml_bytes() - markup;
        let mut lens = vec![budget / slots; slots];
        lens[0] += budget % slots;
        build(&lens)
    }

    /// Every generated input as bytes, for the determinism test: two runs
    /// of one seed must agree on all of it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "{:?}{:?}{:?}{:?}",
            self.seeds, self.population, self.candidates, self.order
        )
        .into_bytes();
        for doc in [Doc::Ward, Doc::Small, Doc::Bulk] {
            for op in 0..4 {
                out.extend_from_slice(self.document(doc, op).to_xml().as_bytes());
            }
        }
        out.extend_from_slice(&self.archive_log);
        out
    }
}

/// The log the origin broker recovers at start: `ARCHIVE_RECORDS` valid
/// records of `ARCHIVE_RECORD_BYTES` each, spread over `ARCHIVE_DOCS`
/// documents with increasing epochs. The containers hold random bytes in
/// place of ciphertext: nobody subscribes to them, they exist to be
/// scanned, checksummed, indexed and streamed to the edge.
fn archive_log(rng: &mut StdRng) -> Vec<u8> {
    let record = |doc: &str, epoch: u64, ciphertext: Vec<u8>, key_info: Vec<u8>| {
        let container = BroadcastContainer {
            epoch,
            document_name: doc.to_string(),
            skeleton_xml: "<Archive><pbcd-segment id=\"0\"/></Archive>".to_string(),
            groups: vec![EncryptedGroup {
                config_id: 0,
                key_info,
                segments: vec![EncryptedSegment {
                    segment_id: 0,
                    tag: "Entry".to_string(),
                    ciphertext,
                }],
            }],
        };
        let bytes = container.encode().expect("archive container encodes");
        encode_record(doc, epoch, &deliver_body(&bytes)).expect("archive record encodes")
    };
    let doc_name = |d: usize| format!("archive-{d:02}.xml");
    let overhead = record(&doc_name(0), 1, Vec::new(), vec![0; 64]).len();
    let fill = ARCHIVE_RECORD_BYTES - overhead;
    let mut log = Vec::with_capacity(ARCHIVE_RECORDS * ARCHIVE_RECORD_BYTES);
    for i in 0..ARCHIVE_RECORDS {
        let mut ciphertext = vec![0u8; fill];
        rng.fill_bytes(&mut ciphertext);
        let mut key_info = vec![0u8; 64];
        rng.fill_bytes(&mut key_info);
        let rec = record(
            &doc_name(i % ARCHIVE_DOCS),
            (i / ARCHIVE_DOCS) as u64 + 1,
            ciphertext,
            key_info,
        );
        assert_eq!(rec.len(), ARCHIVE_RECORD_BYTES, "archive record size");
        log.extend_from_slice(&rec);
    }
    log
}
