//! The broadcast container: the single artifact the publisher broadcasts.
//!
//! Per the paper, a broadcast carries, for every policy configuration, the
//! encrypted subdocuments plus the public key-derivation values
//! (`X, z₁…z_N`). The container treats that key material as an opaque blob
//! produced by the GKM layer, keeping this crate independent of the key
//! management scheme. Layout (all fields length-prefixed, big-endian):
//!
//! ```text
//! magic "PBCD" ‖ version u32 ‖ epoch u64 ‖ document_name ‖ skeleton_xml ‖
//!   group_count u32 ‖ group*
//! group   := config_id u32 ‖ key_info ‖ segment_count u32 ‖ segment*
//! segment := segment_id u32 ‖ tag ‖ ciphertext
//! ```

use crate::wire::{get_bytes, get_fixed, get_str, get_u32, get_u64, put_bytes, put_str, WireError};

const MAGIC: &[u8; 4] = b"PBCD";
const VERSION: u32 = 1;

/// One encrypted subdocument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedSegment {
    /// Segment id matching the skeleton placeholder.
    pub segment_id: u32,
    /// Original tag name (public metadata, like the XML tag itself).
    pub tag: String,
    /// Authenticated ciphertext of the serialized element.
    pub ciphertext: Vec<u8>,
}

/// All segments sharing one policy configuration, plus the public key
/// material for that configuration's group key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedGroup {
    /// Publisher-assigned configuration id.
    pub config_id: u32,
    /// Opaque GKM public info (`X, z₁…z_N` serialized); empty for the
    /// "nobody can access" empty configuration.
    pub key_info: Vec<u8>,
    /// The encrypted segments.
    pub segments: Vec<EncryptedSegment>,
}

/// A complete broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastContainer {
    /// Rekey epoch — bumped on every join/leave/revocation rekey.
    pub epoch: u64,
    /// Document name.
    pub document_name: String,
    /// Plaintext skeleton (structure is public; contents are not).
    pub skeleton_xml: String,
    /// Per-configuration encrypted groups.
    pub groups: Vec<EncryptedGroup>,
}

impl BroadcastContainer {
    /// Serializes to the wire format. Fails (instead of panicking) when any
    /// field exceeds [`crate::wire::MAX_FIELD_LEN`], so encoding a hostile
    /// container can never abort the encoding thread.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(self.size_bytes());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.extend_from_slice(&self.epoch.to_be_bytes());
        put_str(&mut buf, &self.document_name)?;
        put_str(&mut buf, &self.skeleton_xml)?;
        buf.extend_from_slice(&(self.groups.len() as u32).to_be_bytes());
        for g in &self.groups {
            buf.extend_from_slice(&g.config_id.to_be_bytes());
            put_bytes(&mut buf, &g.key_info)?;
            buf.extend_from_slice(&(g.segments.len() as u32).to_be_bytes());
            for s in &g.segments {
                buf.extend_from_slice(&s.segment_id.to_be_bytes());
                put_str(&mut buf, &s.tag)?;
                put_bytes(&mut buf, &s.ciphertext)?;
            }
        }
        Ok(buf)
    }

    /// Parses and validates the wire format.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut buf = data;
        let magic = get_fixed::<4>(&mut buf)?;
        let version = get_u32(&mut buf)?;
        if &magic != MAGIC || version != VERSION {
            return Err(WireError::BadHeader);
        }
        let epoch = get_u64(&mut buf)?;
        let document_name = get_str(&mut buf)?;
        let skeleton_xml = get_str(&mut buf)?;
        let group_count = get_u32(&mut buf)? as usize;
        // Each group needs ≥ 12 bytes; bound against corrupt counts.
        if group_count > data.len() / 12 + 1 {
            return Err(WireError::Truncated);
        }
        let mut groups = Vec::with_capacity(group_count.min(1024));
        for _ in 0..group_count {
            let config_id = get_u32(&mut buf)?;
            let key_info = get_bytes(&mut buf)?;
            let segment_count = get_u32(&mut buf)? as usize;
            if segment_count > data.len() / 12 + 1 {
                return Err(WireError::Truncated);
            }
            let mut segments = Vec::with_capacity(segment_count.min(1024));
            for _ in 0..segment_count {
                let segment_id = get_u32(&mut buf)?;
                let tag = get_str(&mut buf)?;
                let ciphertext = get_bytes(&mut buf)?;
                segments.push(EncryptedSegment {
                    segment_id,
                    tag,
                    ciphertext,
                });
            }
            groups.push(EncryptedGroup {
                config_id,
                key_info,
                segments,
            });
        }
        if !buf.is_empty() {
            return Err(WireError::BadHeader);
        }
        Ok(Self {
            epoch,
            document_name,
            skeleton_xml,
            groups,
        })
    }

    /// Total broadcast size in bytes (what [`Self::encode`] would emit),
    /// computed without materializing the encoding.
    pub fn size_bytes(&self) -> usize {
        let mut n = 4 + 4 + 8; // magic ‖ version ‖ epoch
        n += 4 + self.document_name.len();
        n += 4 + self.skeleton_xml.len();
        n += 4; // group count
        for g in &self.groups {
            n += 4 + 4 + g.key_info.len() + 4;
            for s in &g.segments {
                n += 4 + 4 + s.tag.len() + 4 + s.ciphertext.len();
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BroadcastContainer {
        BroadcastContainer {
            epoch: 3,
            document_name: "EHR.xml".into(),
            skeleton_xml: "<PatientRecord><pbcd-segment id=\"0\"/></PatientRecord>".into(),
            groups: vec![
                EncryptedGroup {
                    config_id: 0,
                    key_info: vec![1, 2, 3, 4],
                    segments: vec![EncryptedSegment {
                        segment_id: 0,
                        tag: "ContactInfo".into(),
                        ciphertext: vec![9; 100],
                    }],
                },
                EncryptedGroup {
                    config_id: 1,
                    key_info: vec![],
                    segments: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let enc = c.encode().unwrap();
        assert_eq!(enc.len(), c.size_bytes());
        assert_eq!(BroadcastContainer::decode(&enc).unwrap(), c);
    }

    #[test]
    fn oversized_field_fails_encode() {
        let mut c = sample();
        c.groups[0].segments[0].ciphertext = vec![0; crate::wire::MAX_FIELD_LEN + 1];
        assert!(matches!(c.encode(), Err(WireError::FieldTooLong(_))));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut enc = sample().encode().unwrap();
        enc[0] = b'X';
        assert_eq!(BroadcastContainer::decode(&enc), Err(WireError::BadHeader));
        let mut enc = sample().encode().unwrap();
        enc[7] = 99; // version byte
        assert_eq!(BroadcastContainer::decode(&enc), Err(WireError::BadHeader));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let enc = sample().encode().unwrap();
        for cut in 0..enc.len() {
            assert!(
                BroadcastContainer::decode(&enc[..cut]).is_err(),
                "cut={cut} must not decode"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut enc = sample().encode().unwrap();
        enc.push(0);
        assert!(BroadcastContainer::decode(&enc).is_err());
    }

    #[test]
    fn empty_container() {
        let c = BroadcastContainer {
            epoch: 0,
            document_name: String::new(),
            skeleton_xml: String::new(),
            groups: vec![],
        };
        assert_eq!(BroadcastContainer::decode(&c.encode().unwrap()).unwrap(), c);
    }

    #[test]
    fn size_reflects_payload() {
        let mut c = sample();
        let before = c.size_bytes();
        c.groups[0].segments[0].ciphertext = vec![9; 1000];
        assert_eq!(c.size_bytes(), before + 900);
    }
}
