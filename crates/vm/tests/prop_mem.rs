//! Property tests for the page-span memory paths.
//!
//! `Memory::read`, `write`, `read_bytes` and `write_bytes` resolve a mapped
//! span once and copy whole page slices. A byte-at-a-time reference model
//! defines what they must do: the same values, the same fault address, the
//! same bytes written before a fault, and the same code generation. Spans
//! are aimed at page, region and code-region edges, and at the top of the
//! address space where a span wraps.

use std::collections::{HashMap, HashSet};

use ddt_isa::{encode, Insn};
use ddt_vm::mem::PAGE_SIZE;
use ddt_vm::{AccessKind, BlockCache, Fault, MemError, Memory, StepEvent, Vm};
use proptest::prelude::*;

/// The memory contract, one byte at a time.
#[derive(Default)]
struct Model {
    mapped: HashSet<u32>,
    bytes: HashMap<u32, u8>,
    code: Option<(u32, u32)>,
    generation: u64,
}

impl Model {
    fn map(&mut self, start: u32, len: u32) {
        self.mapped.extend(start..start + len);
    }

    fn unmap(&mut self, start: u32, len: u32) {
        let end = start + len;
        for a in start..end {
            self.mapped.remove(&a);
        }
        // Pages wholly inside the range lose their contents; a partly
        // unmapped page keeps them.
        self.bytes.retain(|&a, _| {
            let base = a & !(PAGE_SIZE - 1);
            !(base >= start && base < end && end - base >= PAGE_SIZE)
        });
    }

    fn set_code_region(&mut self, start: u32, len: u32) {
        self.code = Some((start, start.saturating_add(len)));
        self.generation += 1;
    }

    fn read_u8(&self, addr: u32, kind: AccessKind) -> Result<u8, MemError> {
        if !self.mapped.contains(&addr) {
            return Err(MemError { addr, kind });
        }
        Ok(self.bytes.get(&addr).copied().unwrap_or(0))
    }

    fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), MemError> {
        if !self.mapped.contains(&addr) {
            return Err(MemError { addr, kind: AccessKind::Write });
        }
        if self.code.is_some_and(|(s, e)| addr >= s && addr < e) {
            self.generation += 1;
        }
        self.bytes.insert(addr, v);
        Ok(())
    }

    fn read_bytes(&self, addr: u32, len: u32, kind: AccessKind) -> Result<Vec<u8>, MemError> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i), kind)).collect()
    }

    /// Little-endian value of `size` bytes.
    fn read(&self, addr: u32, size: u8, kind: AccessKind) -> Result<u64, MemError> {
        let raw = self.read_bytes(addr, size as u32, kind)?;
        Ok(raw.iter().rev().fold(0, |acc, &b| acc << 8 | b as u64))
    }

    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b)?;
        }
        Ok(())
    }
}

const LOW: u32 = 0x1000;
const LOW_PAGES: u32 = 6;
const HIGH: u32 = 0xffff_a000;
const SIZES: [u8; 4] = [1, 2, 4, 8];

/// An address within a few bytes of an interesting edge: a page boundary
/// of either window, a mapped region's start or end, the code region's
/// start or end, or the top of the address space.
fn pick_addr(mem: &Memory, code: Option<(u32, u32)>, sel: u32) -> u32 {
    let mut anchors: Vec<u32> = (0..=LOW_PAGES).map(|p| LOW + p * PAGE_SIZE).collect();
    anchors.extend((0..6).map(|p| HIGH + p * PAGE_SIZE));
    anchors.push(u32::MAX);
    for (s, e) in mem.regions() {
        anchors.extend([s, e]);
    }
    if let Some((s, e)) = code {
        anchors.extend([s, e]);
    }
    let anchor = anchors[sel as usize % anchors.len()];
    let delta = ((sel >> 20) % 24) as i32 - 12;
    anchor.wrapping_add_signed(delta)
}

/// A span length: mostly short, sometimes several pages.
fn pick_len(sel: u32) -> u32 {
    if sel & 0x8000 != 0 {
        sel % (2 * PAGE_SIZE + 64)
    } else {
        sel % 40
    }
}

/// The two memories map the same bytes, and each reads back the same.
fn same_contents(mem: &mut Memory, model: &Model) -> Result<(), TestCaseError> {
    let mut mapped = HashSet::new();
    for (s, e) in mem.regions() {
        mapped.extend(s..e);
    }
    prop_assert!(mapped == model.mapped, "mapped bytes differ");
    for &a in &model.mapped {
        prop_assert_eq!(mem.read_u8(a, AccessKind::Read), model.read_u8(a, AccessKind::Read));
    }
    Ok(())
}

proptest! {
    #[test]
    fn page_span_memory_matches_the_byte_model(
        base_map in any::<bool>(),
        ops in prop::collection::vec((0u8..8, any::<u32>(), any::<u32>(), any::<u64>()), 1..40),
    ) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        if base_map {
            mem.map(LOW, LOW_PAGES * PAGE_SIZE);
            model.map(LOW, LOW_PAGES * PAGE_SIZE);
        }
        for (step, &(op, a, b, v)) in ops.iter().enumerate() {
            let addr = pick_addr(&mem, model.code, a);
            let size = SIZES[b as usize % 4];
            match op {
                0 => {
                    // The last byte of the address space is never mappable.
                    let len = (b % (PAGE_SIZE + PAGE_SIZE / 2)).min(u32::MAX - addr);
                    mem.map(addr, len);
                    model.map(addr, len);
                }
                1 => {
                    let len = (b % (PAGE_SIZE + PAGE_SIZE / 2)).min(u32::MAX - addr);
                    mem.unmap(addr, len);
                    model.unmap(addr, len);
                }
                2 => {
                    let len = b % (2 * PAGE_SIZE);
                    mem.set_code_region(addr, len);
                    model.set_code_region(addr, len);
                }
                3 => {
                    let want = model.read(addr, size, AccessKind::Read);
                    prop_assert_eq!(mem.read(addr, size, AccessKind::Read), want, "op {}", step);
                }
                4 => {
                    let want = model.read(addr, size, AccessKind::Fetch);
                    prop_assert_eq!(mem.read(addr, size, AccessKind::Fetch), want, "op {}", step);
                }
                5 => {
                    let got = mem.write(addr, size, v);
                    let want = model.write_bytes(addr, &v.to_le_bytes()[..size as usize]);
                    prop_assert_eq!(got, want, "op {}", step);
                }
                6 => {
                    let len = pick_len(b);
                    let want = model.read_bytes(addr, len, AccessKind::Read);
                    prop_assert_eq!(mem.read_bytes(addr, len), want, "op {}", step);
                }
                _ => {
                    let len = pick_len(b);
                    let bytes: Vec<u8> =
                        (0..len).map(|i| v.rotate_left(i % 64) as u8 ^ i as u8).collect();
                    let got = mem.write_bytes(addr, &bytes);
                    let want = model.write_bytes(addr, &bytes);
                    prop_assert_eq!(got, want, "op {}", step);
                }
            }
            prop_assert_eq!(mem.code_generation(), model.generation, "op {}", step);
        }
        same_contents(&mut mem, &model)?;
    }

    #[test]
    fn step_and_run_fast_fault_alike_on_a_straddling_fetch(
        shift in 0u32..8,
        before in 1u32..24,
        mapped_tail in 1u32..8,
    ) {
        // `before` nops, then one instruction whose last `8 - mapped_tail`
        // bytes lie past the end of the mapping. The code sits across a
        // page boundary, so some fetches before the fault straddle it.
        let base = 2 * PAGE_SIZE - 8 * (before / 2) - shift;
        let fault_pc = base + 8 * before;
        let nop = encode(Insn::Nop);
        let build = || {
            let mut vm = Vm::new();
            vm.mem.map(base, 8 * before + mapped_tail);
            for i in 0..before {
                vm.mem.write_bytes(base + 8 * i, &nop).unwrap();
            }
            vm.mem.write_bytes(fault_pc, &nop[..mapped_tail as usize]).unwrap();
            vm.mem.set_code_region(base, 8 * before + mapped_tail);
            vm.cpu.pc = base;
            vm
        };
        let want = StepEvent::Faulted(Fault::BadAccess {
            pc: fault_pc,
            addr: fault_pc + mapped_tail,
            kind: AccessKind::Fetch,
        });
        let mut slow = build();
        prop_assert_eq!(slow.run(1000), want);
        let mut fast = build();
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        prop_assert_eq!(fast.run_fast(1000, &mut cache, &mut trace), want);
        prop_assert_eq!(&slow.cpu, &fast.cpu);
        prop_assert_eq!(slow.insns_retired, before as u64);
        prop_assert_eq!(fast.insns_retired, before as u64);
    }
}
