//! Pins the trusted-party setup to constants.
//!
//! `TrustedParty::setup` builds its certificates key-outer (one comb table
//! per registered bit key, served to every neighbor key that re-randomises
//! it).  These constants were captured on the commit that still called
//! `rerandomize_public_key` once per certificate entry: every
//! certificate's integrity tag — an FNV-1a over *all* of its key integers
//! in `keys[member][bit]` order, so one wrong or misplaced key changes it
//! — plus the first and last key integer of the whole setup.
//!
//! Never regenerate these constants to make a change pass: a mismatch
//! means the change altered a certificate key, the certificate layout or
//! the RNG draws of the block assignment.

use dstress_crypto::group::{Group, GroupKind};
use dstress_math::rng::Xoshiro256;
use dstress_transfer::setup::generate_system;

const NODES: usize = 12;
const DEGREE: usize = 2;
const BITS: u32 = 12;

struct Pinned {
    group: GroupKind,
    block: usize,
    /// `certificates[i][j].signature`, row-major in `(i, j)`.
    signatures: [u64; NODES * DEGREE],
    /// Hex of `certificates[0][0].keys[0][0]`.
    first_key: &'static str,
    /// Hex of `certificates[NODES − 1][DEGREE − 1].keys[block − 1][BITS − 1]`.
    last_key: &'static str,
}

#[test]
fn setup_matches_the_pinned_certificates() {
    assert_eq!(PINNED.len(), 4, "2 groups x 2 block sizes");
    for pinned in PINNED {
        let group = Group::new(pinned.group);
        let mut rng = Xoshiro256::new(0x5E7 ^ (pinned.block as u64) << 8);
        let (_, setup) =
            generate_system(&group, NODES, pinned.block - 1, DEGREE, BITS, &mut rng).unwrap();
        let label = format!("{:?} block {}", pinned.group, pinned.block);

        let signatures: Vec<u64> = setup
            .certificates
            .iter()
            .flatten()
            .map(|cert| cert.signature)
            .collect();
        assert_eq!(signatures, pinned.signatures, "{label}");
        for (i, node_certs) in setup.certificates.iter().enumerate() {
            for (j, cert) in node_certs.iter().enumerate() {
                assert_eq!((cert.block_owner.0, cert.neighbor_index), (i, j), "{label}");
                assert_eq!(cert.keys.len(), pinned.block, "{label}");
                assert!(
                    cert.keys.iter().all(|k| k.len() == BITS as usize),
                    "{label}"
                );
            }
        }

        let key_hex = |i: usize, j: usize, member: usize, bit: usize| {
            let key = setup.certificates[i][j].keys[member][bit];
            group.elem_to_int(key.element()).to_hex()
        };
        assert_eq!(key_hex(0, 0, 0, 0), pinned.first_key, "{label}");
        assert_eq!(
            key_hex(NODES - 1, DEGREE - 1, pinned.block - 1, BITS as usize - 1),
            pinned.last_key,
            "{label}"
        );
    }
}

const PINNED: &[Pinned] = &[
    Pinned {
        group: GroupKind::Sim64,
        block: 3,
        signatures: [
            0x0ef088810e7bbc29,
            0x2619c596dd99814a,
            0x31a37b1d77ebbd58,
            0x5fca3b78ed9e420b,
            0xfa24d2caed61c0ca,
            0xf1e077109d63ccd5,
            0x64259b6e5519d8fe,
            0x398270edfaa3e5c0,
            0xa189f8cc9294051c,
            0xa92578c175114852,
            0xb1f5a2446210739d,
            0xb59b66f2c087767c,
            0x2d76d1684fec9c60,
            0xd950dc4dab5266b3,
            0x006e06ba03cb7ee3,
            0xc5e98d94fbcf7de3,
            0xc69e562028eaa6fb,
            0x86e6b73d362d0e4f,
            0x7169150526170a22,
            0x207eec754ac4d03c,
            0x580d598c82751301,
            0xeecaa8aa9b1112ef,
            0x54483a0304ea2e1a,
            0xd723e4e829fe1e61,
        ],
        first_key: "100947402d235103",
        last_key: "741bc98df5f4f426",
    },
    Pinned {
        group: GroupKind::Sim64,
        block: 8,
        signatures: [
            0x32ee9dd90cfcc932,
            0x6fc01f57a3cbba21,
            0xbb6222e269d46ed1,
            0xdbcae52f1159a18a,
            0x25a530c18e3de8b5,
            0xc265117d7544ef2a,
            0x071399cd62b32dc9,
            0x77aba01d9b78fc0b,
            0x5da44169d1c19b09,
            0x85c60498a93bf5fa,
            0x1fb3352e6a75ef53,
            0xab1f38ef3275d3df,
            0x898be1018bb5c270,
            0xe758e4ddedc79020,
            0x021a097137514bdb,
            0x29a609c341837f3c,
            0xd3869ad11e0fef01,
            0xfe3b6c61c26bd12a,
            0xab7006a5911dcc22,
            0xd5c1b5a2a4251d3f,
            0x7d0b0c1d200a448d,
            0xddc82d079812dafc,
            0x427570ea1142f641,
            0x79e58eafb3536c49,
        ],
        first_key: "51b76e4ca03dd06a",
        last_key: "2693b4015237f7a",
    },
    Pinned {
        group: GroupKind::Prod256,
        block: 3,
        signatures: [
            0x9fed1a868b73befc,
            0xd2e506a7a1fe2816,
            0x35d05e7f5e8dee74,
            0xa07490955e8f578e,
            0xb20a22fc84205b12,
            0xd5e083f9664027a6,
            0x0240a005c7f07c17,
            0xef300801caa514d9,
            0xc1bb833663ec6183,
            0x2800172503339b04,
            0xa9ca6db7a1517f44,
            0x1c1c2a67c8c2fece,
            0xf63992781bf8595e,
            0xb17709db732dceb6,
            0xbb3812628122cdb1,
            0x28faa632fa90d2d6,
            0x158ca182457f546e,
            0x94783a092d62bafb,
            0xbc491d787d54aef6,
            0xb1f7804c54a9de03,
            0x86bf7bb66fc369f1,
            0xc6ef3724a5c51132,
            0xbb380d91e2ba7c96,
            0x4fb815267da746c0,
        ],
        first_key: "60b534bf5e9ad0419cc9205cb072a3e46c3daab3f073241a304ba473738aa4b",
        last_key: "2c1d2b5b654bb8eea22ac450bd99cd7c9530f3569cda33fac3081ab755c41e0e",
    },
    Pinned {
        group: GroupKind::Prod256,
        block: 8,
        signatures: [
            0xff1ddbded1e66472,
            0x3844ca9ba203f2ab,
            0xd2fa5bdf861eb53e,
            0x86610eddf61888a3,
            0x410146de764bf21b,
            0x4443844be76dd8dd,
            0xb469ef6feefa6cb9,
            0xbd6e9a9908864d78,
            0x17e1c3de11a99a64,
            0xc7e1b8dd5513b211,
            0xba2b17f2e1595655,
            0x3c301df6337c3e08,
            0x8eeb29979c478742,
            0x844873bf07ecc36b,
            0x0ac994f2340619cd,
            0x3f58b1605e68be48,
            0x561fb6ec032a0eeb,
            0x4c610c0ac748b7af,
            0x249aa48594158837,
            0xa63df95589890e2e,
            0xa5aafd34cae63e27,
            0x55325dc69ddd4b5a,
            0x25b7a9114eeafc8b,
            0x8a68ffa651620298,
        ],
        first_key: "4c5095c6529fcf9c91679843a626146280749fc52d0601d2dcf88bc5a2cddce",
        last_key: "74c9202755155518752b572d88409fdb4b00a1133d8949ae749281b7bede4bf3",
    },
];
