//! The output checks are not vacuous: three planted faults, each caught.

use pbcd_benchmark::check;
use pbcd_benchmark::fixture::{register_in_process, Authority, Conditions, Holder, G};
use pbcd_benchmark::gen::{Doc, Inputs};
use pbcd_core::Publisher;
use pbcd_gkm::{AcvBgkm, Nym};
use pbcd_policy::AttributeSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    inputs: Inputs,
    conds: Conditions,
    publisher: Publisher<G>,
    rng: StdRng,
    auth: Authority,
}

fn world() -> World {
    let inputs = Inputs::generate(11);
    let conds = Conditions::new();
    let auth = Authority::new(&inputs.seeds);
    let publisher = Publisher::new(auth.group.clone(), auth.idmgr_key.clone(), conds.policies());
    World {
        rng: StdRng::seed_from_u64(inputs.seeds.ops),
        inputs,
        conds,
        publisher,
        auth,
    }
}

impl World {
    fn member(&mut self, subject: &str, role: &str) -> Holder {
        let mut holder = self
            .auth
            .onboard(subject, AttributeSet::new().with_str("role", role));
        register_in_process(
            &mut self.publisher,
            &mut holder,
            &self.conds.doctor,
            &mut self.rng,
        )
        .expect("registration runs");
        holder
    }
}

#[test]
fn a_flipped_byte_in_a_delivered_container_is_a_failed_op() {
    let mut w = world();
    let reader = w.member("reader", "doctor");
    let doc = w.inputs.document(Doc::Ward, 0);
    let mut container = w.publisher.broadcast(&doc, Doc::Ward.name(), &mut w.rng);
    let policies = w.conds.policies();

    // The reader holds `role = doctor` only: it reads Diagnosis, and the
    // check compares that subdocument.
    let view = reader
        .sub
        .decrypt_broadcast(&container, &policies)
        .expect("decrypts");
    assert!(check::joiner_ok(&doc, &view), "the honest delivery passes");

    let diagnosis = container
        .groups
        .iter_mut()
        .find(|g| g.segments[0].tag == "Diagnosis")
        .expect("a Diagnosis group");
    let middle = diagnosis.segments[0].ciphertext.len() / 2;
    diagnosis.segments[0].ciphertext[middle] ^= 0x01;
    let view = reader
        .sub
        .decrypt_broadcast(&container, &policies)
        .expect("fails closed");
    assert!(!check::joiner_ok(&doc, &view), "one flipped byte is caught");
    assert!(!check::delivery_ok(&doc, &view));
}

#[test]
fn a_non_qualifying_subject_that_extracts_a_css_is_a_failed_op() {
    let mut w = world();
    let mut nurse = w.member("nurse", "nurse");
    let cond = w.conds.doctor.clone();
    let issued = w
        .publisher
        .shared_css_table()
        .get(&Nym::new(&nurse.nym), &cond);
    assert!(issued.is_some(), "the table records every registration");

    let held = nurse.sub.css_snapshot(&cond);
    assert!(
        check::registration_ok(false, false, held.as_deref(), issued.as_deref()),
        "the honest outcome passes: nothing extracted, nothing held"
    );
    // Planted: the envelope 'opens' for a subject that does not qualify.
    nurse.sub.inject_css(&cond, issued.clone().unwrap());
    let held = nurse.sub.css_snapshot(&cond);
    assert!(!check::registration_ok(
        false,
        true,
        held.as_deref(),
        issued.as_deref()
    ));
    assert!(!check::registration_ok(
        false,
        false,
        held.as_deref(),
        issued.as_deref()
    ));
    // And a qualifying subject left with the wrong CSS is caught too.
    assert!(!check::registration_ok(
        true,
        true,
        Some(&[0u8; 16]),
        issued.as_deref()
    ));
    assert!(!check::registration_ok(
        true,
        false,
        None,
        issued.as_deref()
    ));
}

#[test]
fn a_revoked_subscriber_that_still_reads_diagnosis_is_a_failed_op() {
    let mut w = world();
    let joiner = w.member("joiner", "doctor");
    let revoked = w.member("revoked", "doctor");
    let doc = w.inputs.document(Doc::Ward, 1);
    let policies = w.conds.policies();

    // Planted: the revocation never reaches the table.
    let container = w.publisher.broadcast(&doc, Doc::Ward.name(), &mut w.rng);
    let view = revoked
        .sub
        .decrypt_broadcast(&container, &policies)
        .expect("decrypts");
    assert!(
        !check::revoked_ok(&view),
        "still reading Diagnosis is caught"
    );

    assert!(w.publisher.revoke_subscriber(&revoked.nym));
    let container = w.publisher.broadcast(&doc, Doc::Ward.name(), &mut w.rng);
    let diagnosis = &container
        .groups
        .iter()
        .find(|g| g.segments[0].tag == "Diagnosis")
        .unwrap();
    assert!(!check::repeats_nonce(&diagnosis.key_info));
    let view = revoked
        .sub
        .decrypt_broadcast(&container, &policies)
        .expect("fails closed");
    assert!(check::revoked_ok(&view), "the honest revocation passes");
    let view = joiner
        .sub
        .decrypt_broadcast(&container, &policies)
        .expect("decrypts");
    assert!(check::joiner_ok(&doc, &view));
}

#[test]
fn a_repeated_acv_nonce_is_detected() {
    let gkm = AcvBgkm::default();
    let rows: Vec<pbcd_gkm::AccessRow> = (0..8)
        .map(|i| pbcd_gkm::AccessRow {
            nym: format!("pn-{i}"),
            css_concat: vec![i as u8; 16],
        })
        .collect();
    let (_, mut info) = gkm.rekey(&rows, &mut StdRng::seed_from_u64(3));
    assert!(!check::repeats_nonce(&info.encode()));
    info.zs[5] = info.zs[2].clone();
    assert!(check::repeats_nonce(&info.encode()));
}
