//! Input-group dependency analysis.
//!
//! Tracks, per wire, which *groups* of input wires the wire can depend
//! on, as a small bitset propagated through the gate list.  The
//! sensitivity certifier uses this twice: to prove an aggregation
//! decomposes into per-vertex terms (each term depends on at most one
//! vertex's state) and to prove an update circuit is state-local (its
//! state outputs never read the message inputs).

use std::collections::BTreeMap;

use dstress_circuit::{Circuit, Gate, WireId};

/// Per-wire group-dependency bitsets.
pub struct GroupDeps {
    blocks: usize,
    bits: Vec<u64>,
}

impl GroupDeps {
    /// Propagates group membership through `circuit`.  `wire_group` maps
    /// input *wires* to their group id in `0..num_groups`; input wires
    /// missing from the map (and constants) depend on nothing.
    pub fn of(circuit: &Circuit, wire_group: &BTreeMap<WireId, usize>, num_groups: usize) -> Self {
        let blocks = num_groups.div_ceil(64).max(1);
        let mut bits = vec![0u64; circuit.len() * blocks];
        for (i, gate) in circuit.gates().enumerate() {
            match gate {
                Gate::Input(_) => {
                    if let Some(&g) = wire_group.get(&(i as WireId)) {
                        bits[i * blocks + g / 64] |= 1u64 << (g % 64);
                    }
                }
                Gate::ConstFalse | Gate::ConstTrue => {}
                Gate::Not(a) => {
                    let a = a as usize;
                    for k in 0..blocks {
                        bits[i * blocks + k] = bits[a * blocks + k];
                    }
                }
                Gate::Xor(a, b) | Gate::And(a, b) => {
                    let (a, b) = (a as usize, b as usize);
                    for k in 0..blocks {
                        bits[i * blocks + k] = bits[a * blocks + k] | bits[b * blocks + k];
                    }
                }
            }
        }
        GroupDeps { blocks, bits }
    }

    /// The sorted set of groups a word of wires depends on.
    pub fn groups_of(&self, word: &[WireId]) -> Vec<usize> {
        let mut acc = vec![0u64; self.blocks];
        for &w in word {
            for (k, slot) in acc.iter_mut().enumerate() {
                *slot |= self.bits[w as usize * self.blocks + k];
            }
        }
        let mut out = Vec::new();
        for (k, &block) in acc.iter().enumerate() {
            let mut b = block;
            while b != 0 {
                let j = b.trailing_zeros() as usize;
                out.push(k * 64 + j);
                b &= b - 1;
            }
        }
        out
    }
}
