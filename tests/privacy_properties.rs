//! Cross-crate integration tests for the privacy mechanisms.
//!
//! These tests check the properties §2 of the paper promises — value
//! privacy, edge privacy and output privacy — at the level of observable
//! behaviour: shares look random, coalitions below the collusion bound
//! cannot reconstruct, transfers re-randomise the shares they carry, the
//! noised bit-sums follow the geometric mechanism, and the released output
//! follows the Laplace mechanism within the privacy budget.

use dstress::circuit::builder::CircuitBuilder;
use dstress::crypto::group::Group;
use dstress::crypto::sharing::{split_xor, xor_reconstruct, BitMessage};
use dstress::crypto::DlogTable;
use dstress::dp::budget::PrivacyBudget;
use dstress::dp::geometric::TwoSidedGeometric;
use dstress::dp::laplace::LaplaceMechanism;
use dstress::math::rng::{DetRng, Xoshiro256};
use dstress::mpc::gmw::{execute_batch, execute_established, share_inputs, GmwJob};
use dstress::mpc::{GmwBatching, GmwMessage, OtConfig};
use dstress::net::traffic::{NodeId, TrafficAccountant};
use dstress::net::transport::{NodeActor, Session, SimTransport, Transport, TransportError};
use dstress::net::wire::WireTally;
use dstress::net::SocketTransport;
use dstress::transfer::protocol::{transfer_message, TransferConfig};
use dstress::transfer::setup::generate_system;

/// Any `k` of the `k + 1` shares of a value are (statistically)
/// independent of the secret: flipping the secret leaves every proper
/// subset's joint distribution unchanged.  We verify the constructive
/// property that drives it: the first `k` shares are fresh uniform
/// randomness, so two different secrets produce identical prefixes when
/// the randomness is replayed.
#[test]
fn k_shares_reveal_nothing() {
    let a = BitMessage::new(0x000, 12).unwrap();
    let b = BitMessage::new(0xFFF, 12).unwrap();
    let shares_a = split_xor(a, 4, &mut Xoshiro256::new(99));
    let shares_b = split_xor(b, 4, &mut Xoshiro256::new(99));
    // First k = 3 shares are identical for both secrets...
    assert_eq!(shares_a[..3], shares_b[..3]);
    // ...and only the full set reconstructs the right value.
    assert_eq!(xor_reconstruct(&shares_a).unwrap(), a);
    assert_eq!(xor_reconstruct(&shares_b).unwrap(), b);
    assert_ne!(
        xor_reconstruct(&shares_a[..3]).unwrap(),
        a,
        "a k-subset must not already equal the secret"
    );
}

/// The transfer protocol hands the receiving block *fresh* shares: the
/// values observed by the receiving members are unrelated to the sending
/// members' shares (this is what defeats the share-recognition attack on
/// strawman #2), yet the XOR is preserved.
#[test]
fn transfers_rerandomise_shares_and_preserve_the_message() {
    let group = Group::sim64();
    let mut rng = Xoshiro256::new(0x51AB);
    let (secrets, setup) = generate_system(&group, 10, 3, 2, 12, &mut rng).unwrap();
    let dlog = DlogTable::new_signed(&group, 2_000);
    let config = TransferConfig::final_protocol(12, 0.6);

    let message = BitMessage::new(0x5A5, 12).unwrap();
    let sender_shares = split_xor(message, 4, &mut rng);
    let mut previous_receiver_shares = None;
    for round in 0..3u64 {
        let mut traffic = TrafficAccountant::new();
        let outcome = transfer_message(
            &group,
            &config,
            NodeId(0),
            NodeId(1),
            &setup.blocks[0],
            &setup.blocks[1],
            &sender_shares,
            &secrets,
            &setup.certificates[1][0],
            &secrets[1].neighbor_keys[0],
            &dlog,
            &mut traffic,
            &mut rng,
        )
        .unwrap();
        assert_eq!(xor_reconstruct(&outcome.receiver_shares).unwrap(), message);
        assert_ne!(outcome.receiver_shares, sender_shares, "round {round}");
        if let Some(previous) = previous_receiver_shares {
            assert_ne!(
                outcome.receiver_shares, previous,
                "repeated transfers must not repeat share patterns"
            );
        }
        previous_receiver_shares = Some(outcome.receiver_shares);
    }
}

/// Edge privacy relies on routing: only the two endpoint vertices of an
/// edge handle traffic for it; the members of the two blocks talk to their
/// own vertex, never to the other block directly.
#[test]
fn transfer_traffic_is_routed_through_the_edge_endpoints() {
    let group = Group::sim64();
    let mut rng = Xoshiro256::new(0x407E);
    let (secrets, setup) = generate_system(&group, 14, 3, 2, 8, &mut rng).unwrap();
    let dlog = DlogTable::new_signed(&group, 1_000);
    let config = TransferConfig::final_protocol(8, 0.6);
    let message = BitMessage::new(0x3C, 8).unwrap();
    let sender_shares = split_xor(message, 4, &mut rng);
    let mut traffic = TrafficAccountant::with_pair_tracking();
    transfer_message(
        &group,
        &config,
        NodeId(0),
        NodeId(1),
        &setup.blocks[0],
        &setup.blocks[1],
        &sender_shares,
        &secrets,
        &setup.certificates[1][0],
        &secrets[1].neighbor_keys[0],
        &dlog,
        &mut traffic,
        &mut rng,
    )
    .unwrap();

    // No member of B_0 (other than the endpoints) ever sends to a member
    // of B_1 directly.
    for &sender in &setup.blocks[0].members {
        if sender == NodeId(0) || sender == NodeId(1) {
            continue;
        }
        for &receiver in &setup.blocks[1].members {
            if receiver == NodeId(0) || receiver == NodeId(1) {
                continue;
            }
            if setup.blocks[0].members.contains(&receiver) {
                continue; // overlapping membership is routed as block-internal
            }
            assert_eq!(
                traffic.pair_bytes(sender, receiver),
                Some(0),
                "{sender} must not talk to {receiver} directly"
            );
        }
    }
    // The endpoints carry the bulk of the traffic.
    assert!(traffic.node(NodeId(0)).wire_bytes_received > 0);
    assert!(traffic.node(NodeId(1)).wire_bytes_sent > 0);
}

/// A session that keeps the transport's own tally of every group it runs.
struct Tallying<'s> {
    inner: Box<dyn Session<GmwMessage> + 's>,
    tallies: Vec<WireTally>,
}

impl Session<GmwMessage> for Tallying<'_> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn run(
        &mut self,
        groups: &mut [&mut [&mut dyn NodeActor<GmwMessage>]],
    ) -> Result<Vec<WireTally>, TransportError> {
        let tallies = self.inner.run(groups)?;
        self.tallies.extend(tallies.iter().cloned());
        Ok(tallies)
    }
}

/// The pair bytes the edge-privacy check reads are the bytes that
/// crossed: for every GMW execution, on both backends, the traffic's bytes
/// from each node to each other node equal the transport's tally for that
/// pair of parties — plus, on the one-shot door, the `OtSetup` encoding it
/// charges that directed pair (the owner's to the peer, the peer's back),
/// since no setup crosses the transport.
#[test]
fn gmw_pair_bytes_are_the_transport_tally() {
    let mut builder = CircuitBuilder::new();
    let x = builder.input_word(6);
    let y = builder.input_word(6);
    let product = builder.mul_full(&x, &y);
    builder.output_word(&product);
    let circuit = builder.build().unwrap();
    let parties = 4;
    let jobs: Vec<GmwJob> = (0..3u64)
        .map(|j| {
            let mut rng = Xoshiro256::new(0xED6E + j);
            let inputs: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.next_bool()).collect();
            GmwJob {
                node_ids: (0..parties)
                    .map(|p| NodeId(7 * j as usize + 2 * p))
                    .collect(),
                input_shares: share_inputs(&inputs, parties, &mut rng),
                master_seed: rng.next_u64(),
            }
        })
        .collect();
    let socket = SocketTransport::new();
    for transport in [&SimTransport as &dyn Transport<GmwMessage>, &socket] {
        for established in [false, true] {
            let mut session = Tallying {
                inner: transport.open(parties).unwrap(),
                tallies: Vec::new(),
            };
            let (circuit, ot, batching) = (&circuit, &OtConfig::extension(), GmwBatching::Layered);
            let executions = if established {
                execute_established(&mut session, circuit, batching, ot, jobs.clone())
            } else {
                execute_batch(&mut session, circuit, batching, ot, jobs.clone())
            }
            .unwrap();
            assert_eq!(session.tallies.len(), jobs.len());
            let setup = ot.session_setup();
            let charged = |from: usize, to: usize| {
                let len = if from < to {
                    setup.wire.0
                } else {
                    setup.wire.1
                };
                let message = GmwMessage::OtSetup {
                    ot_payload: vec![0; len],
                };
                if established || from == to {
                    0
                } else {
                    message.encoded_len() as u64
                }
            };
            for ((job, execution), tally) in jobs.iter().zip(&executions).zip(&session.tallies) {
                let mut pairs = TrafficAccountant::with_pair_tracking();
                execution.traffic.merge_into(&mut pairs);
                for (from, &from_id) in job.node_ids.iter().enumerate() {
                    for (to, &to_id) in job.node_ids.iter().enumerate() {
                        assert_eq!(
                            pairs.pair_bytes(from_id, to_id),
                            Some(tally.bytes_between(from, to) + charged(from, to)),
                            "{} established={established}: {from_id} -> {to_id}",
                            transport.name()
                        );
                    }
                }
                assert!(tally.total_bytes() > 0);
            }
        }
    }
}

/// The geometric mechanism used on the bit-sums satisfies the defining DP
/// inequality, and the Laplace mechanism's spread matches its scale — the
/// two release mechanisms the system depends on.
#[test]
fn mechanisms_have_their_documented_distributions() {
    // Geometric: pmf ratio between adjacent outputs bounded by 1/alpha.
    let geo = TwoSidedGeometric::new(0.85);
    for d in -30i64..30 {
        let ratio = geo.pmf(d) / geo.pmf(d + 1);
        assert!((0.85 - 1e-9..=1.0 / 0.85 + 1e-9).contains(&ratio));
    }

    // Laplace: about 95% of samples fall inside the 95% bound.
    let lap = LaplaceMechanism::new(10.0, 0.23);
    let bound = lap.noise_bound(0.95);
    let mut rng = Xoshiro256::new(3);
    let inside = (0..20_000)
        .filter(|_| lap.sample_noise(&mut rng).abs() <= bound)
        .count();
    assert!((18_600..19_400).contains(&inside), "inside = {inside}");
}

/// The §4.5 budget policy: three EGJ stress tests fit in one year's ln 2
/// budget, a fourth does not, and replenishing (the annual disclosure
/// cycle) restores capacity.
#[test]
fn annual_budget_supports_three_stress_tests() {
    let mut budget = PrivacyBudget::paper_annual_budget();
    for quarter in 1..=3 {
        budget
            .charge(&format!("EGJ stress test #{quarter}"), 0.23)
            .expect("three runs fit");
    }
    assert!(budget.charge("fourth run", 0.23).is_err());
    budget.replenish();
    assert!(budget.charge("next year's first run", 0.23).is_ok());
}

/// Different joint seeds give different noise but identical ideal values —
/// the output distribution is a property of the mechanism, not the data
/// path.
#[test]
fn laplace_release_depends_only_on_seed_and_value() {
    let mechanism = LaplaceMechanism::new(10.0, 0.23);
    let mut seeds = Xoshiro256::new(1);
    let mut outputs = Vec::new();
    for _ in 0..200 {
        let mut rng = Xoshiro256::new(seeds.next_u64());
        outputs.push(mechanism.release(500.0, &mut rng));
    }
    let mean = outputs.iter().sum::<f64>() / outputs.len() as f64;
    // Unbiased around the true value, spread on the order of the scale.
    assert!((mean - 500.0).abs() < 15.0, "mean = {mean}");
    let spread = outputs.iter().map(|v| (v - 500.0).abs()).sum::<f64>() / outputs.len() as f64;
    assert!(
        (20.0..90.0).contains(&spread),
        "mean absolute noise = {spread}"
    );
}
