//! Concrete trace replay (§3.5).
//!
//! "A DDT trace has enough information to replay the bug in the DDT VM ...
//! DDT associates with each failed path a set of concrete inputs and system
//! events (e.g., interrupts) that take the driver along that path."
//!
//! [`replay_bug`] re-executes a bug report **concretely** in the `ddt-vm`
//! interpreter: hardware reads are served from the solved model in trace
//! order (a scripted device), registry parameters and entry-point arguments
//! take their model values, and the decision schedule re-applies the
//! injected interrupts and forced allocation failures at the same boundary
//! and call indexes. The same failure must fire again — that is the
//! "irrefutable evidence" the paper gives to consumers.
//!
//! The [`ConcreteRunner`] here is also the execution core of the
//! Driver-Verifier-style concrete baseline in `ddt-sdv`.

use std::collections::{HashMap, VecDeque};

use ddt_isa::Reg;
use ddt_kernel::loader::LoadPlan;
use ddt_kernel::{
    CrashInfo, //
    DevicePowerState,
    EntryInvocation,
    ExecContext,
    FaultFamily,
    Host,
    HostError,
    Irql,
    Kernel,
    KernelEvent,
    ResourceKind,
};
use ddt_vm::{BlockCache, Fault, ScriptedDevice, StepEvent, Vm};

use ddt_drivers::workload::WorkloadOp;
use ddt_fuzz::FuzzInput;

use crate::exerciser::DriverUnderTest;
use crate::report::{Bug, BugClass, Decision, LifecycleEvent};
use ddt_symvm::TraceEvent;

/// How a fork site resolves during choice-log replay (§4.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReplaySteer {
    /// Remain the parent: skip this site without forking.
    Stay,
    /// Become the recorded child alternative (1-based pick).
    Child(u32),
}

/// Steers a machine down a checkpointed choice log: a sequence of
/// `(skips, kind, pick)` entries — "stay the parent at `skips` sites, then
/// become child `pick` of the next site, which must be of `kind`" —
/// followed by `trailing` more stay-sites, up to `target_steps` executed
/// instructions. Exploration is deterministic given the schedule, so a
/// faithful re-execution encounters exactly the recorded sites in the
/// recorded order; anything else is a divergence, flagged (never panicked)
/// so resume can degrade gracefully by dropping the path.
pub(crate) struct ReplayCursor {
    entries: Vec<ddt_trace::PathPick>,
    idx: usize,
    skips_left: u64,
    trailing_left: u64,
    /// Stop replaying once the machine has executed this many steps.
    pub target_steps: u64,
    /// Set on the first mismatch between the log and the re-execution.
    pub diverged: Option<String>,
}

impl ReplayCursor {
    /// A cursor over a frontier record's choice log.
    pub fn new(entries: Vec<ddt_trace::PathPick>, trailing: u64, target_steps: u64) -> ReplayCursor {
        let skips_left = entries.first().map(|p| p.skips).unwrap_or(0);
        ReplayCursor { entries, idx: 0, skips_left, trailing_left: trailing, target_steps, diverged: None }
    }

    /// Resolves the fork site the machine just hit.
    pub fn take(&mut self, kind: ddt_trace::SiteKind) -> ReplaySteer {
        if self.diverged.is_some() {
            return ReplaySteer::Stay;
        }
        if self.idx < self.entries.len() {
            if self.skips_left > 0 {
                self.skips_left -= 1;
                return ReplaySteer::Stay;
            }
            let entry = self.entries[self.idx];
            if entry.kind != kind {
                self.diverged =
                    Some(format!("expected {:?} site, re-execution hit {kind:?}", entry.kind));
                return ReplaySteer::Stay;
            }
            self.idx += 1;
            self.skips_left = self.entries.get(self.idx).map(|p| p.skips).unwrap_or(0);
            ReplaySteer::Child(entry.pick)
        } else if self.trailing_left > 0 {
            self.trailing_left -= 1;
            ReplaySteer::Stay
        } else {
            self.diverged = Some(format!("unrecorded {kind:?} site beyond the choice log"));
            ReplaySteer::Stay
        }
    }

    /// True once every recorded entry and trailing skip has been consumed.
    pub fn exhausted(&self) -> bool {
        self.idx >= self.entries.len() && self.trailing_left == 0
    }

    /// Flags a divergence detected by the caller (first flag wins).
    pub fn mark_diverged(&mut self, why: &str) {
        if self.diverged.is_none() {
            self.diverged = Some(why.to_string());
        }
    }
}

/// Outcome of a concrete run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConcreteOutcome {
    /// The workload completed without incident.
    Completed,
    /// A CPU fault occurred (pc attributed like the symbolic classifier).
    Faulted {
        /// The fault.
        fault: Fault,
        /// Whether it happened inside an injected interrupt handler.
        in_interrupt: bool,
    },
    /// The kernel bug-checked.
    Crashed(CrashInfo),
    /// Initialization failed and resources were left outstanding.
    InitFailureLeak {
        /// Which resource kinds leaked.
        kinds: Vec<ResourceKind>,
    },
    /// The instruction budget expired (hang).
    Hung,
}

/// Result of replaying a bug report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The same failure class fired again.
    Reproduced {
        /// What the concrete run observed.
        observed: String,
    },
    /// The concrete run did not fail the same way.
    NotReproduced {
        /// What the concrete run observed instead.
        observed: String,
    },
}

struct CFrame {
    kind: FrameKind,
    saved: Option<([u32; 16], u32, Irql, ExecContext)>,
    name: String,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum FrameKind {
    Entry,
    Isr,
    Dpc,
    Timer,
    Pnp(LifecycleEvent),
}

/// Detects a stuck run loop: too many consecutive VM events with no
/// instruction retiring means the harness is cycling through traps without
/// the driver making progress — classified as a hang rather than looping
/// forever.
struct SpinGuard {
    last_retired: u64,
    spins: u32,
}

impl SpinGuard {
    fn new(retired: u64) -> SpinGuard {
        SpinGuard { last_retired: retired, spins: 0 }
    }

    fn stuck(&mut self, retired: u64) -> bool {
        if retired != self.last_retired {
            self.last_retired = retired;
            self.spins = 0;
            return false;
        }
        self.spins += 1;
        self.spins > 10_000
    }
}

/// Host over the concrete VM.
struct VmHost<'a> {
    vm: &'a mut Vm,
}

impl Host for VmHost<'_> {
    fn arg(&mut self, idx: usize) -> u32 {
        self.vm.cpu.regs[idx]
    }

    fn set_ret(&mut self, v: u32) {
        self.vm.cpu.regs[0] = v;
    }

    fn mem_read(&mut self, addr: u32, size: u8) -> Result<u32, HostError> {
        self.vm
            .mem
            .read(addr, size, ddt_isa::AccessKind::Read)
            .map(|v| v as u32)
            .map_err(|e| HostError { addr: e.addr })
    }

    fn mem_write(&mut self, addr: u32, size: u8, v: u32) -> Result<(), HostError> {
        self.vm.mem.write(addr, size, v as u64).map_err(|e| HostError { addr: e.addr })
    }

    fn map_region(&mut self, start: u32, len: u32) {
        self.vm.mem.map(start, len);
    }

    fn unmap_region(&mut self, start: u32, len: u32) {
        self.vm.mem.unmap(start, len);
    }

    fn make_symbolic(&mut self, _addr: u32, _len: u32, _label: &str) {
        // Concrete execution: symbolication is a no-op.
    }
}

/// Per-label queues of concrete values for annotated inputs.
#[derive(Clone, Debug, Default)]
pub struct InputOverrides {
    values: HashMap<String, VecDeque<u64>>,
}

impl InputOverrides {
    /// Extracts overrides from a bug's trace + model (label creation order).
    pub fn from_bug(bug: &Bug) -> InputOverrides {
        let mut values: HashMap<String, VecDeque<u64>> = HashMap::new();
        for ev in &bug.trace {
            if let TraceEvent::SymCreate { id, label, .. } = ev {
                values.entry(label.clone()).or_default().push_back(
                    bug.inputs.get_or_zero(*id),
                );
            }
        }
        InputOverrides { values }
    }

    /// Takes the next value recorded under `label`.
    pub fn take(&mut self, label: &str) -> Option<u64> {
        self.values.get_mut(label).and_then(VecDeque::pop_front)
    }
}

/// The concrete execution core: kernel + VM + workload + schedule.
pub struct ConcreteRunner {
    /// The virtual machine.
    pub vm: Vm,
    /// The kernel.
    pub kernel: Kernel,
    workload: Vec<WorkloadOp>,
    workload_pos: usize,
    frames: Vec<CFrame>,
    scratch: u32,
    /// Interrupt boundaries at which to deliver an interrupt.
    inject_at: Vec<u64>,
    /// Boundaries at which a device-lifecycle event must be delivered.
    lifecycle_at: Vec<(u64, LifecycleEvent)>,
    /// Kernel-call indexes at which allocation must fail.
    fail_at: Vec<u64>,
    /// Kernel-call indexes at which a planned fault must be armed.
    fault_at: Vec<(u64, FaultFamily)>,
    kernel_calls: u64,
    boundaries: u64,
    overrides: InputOverrides,
    insn_budget: u64,
    /// Index of the scripted device on the bus (for served-value readback).
    dev: usize,
    /// Index of the first kernel event not yet examined by a caller.
    pub events_cursor: usize,
    /// `(served, writes)` device-access counts at the surprise removal, if
    /// one was delivered: any growth afterwards is a touch-after-remove.
    removal_marks: Option<(usize, usize)>,
    /// Device-write count at PnP handler entry (resume-without-restore).
    pnp_writes_mark: usize,
    /// Set when a resume handler returned without a single hardware write.
    pub resume_without_writes: bool,
    /// Snapshot of (cpu, memory) taken right after image load, before the
    /// entry invocation: [`reset`](Self::reset) restores from here instead
    /// of rebuilding the VM. Memory is demand-paged, so the clone copies
    /// only the pages the image actually touched.
    pristine: (ddt_vm::Cpu, ddt_vm::Memory),
    /// The cached DriverEntry invocation (re-derived load plans are the
    /// other rebuild cost reset avoids).
    entry: EntryInvocation,
}

/// Builds the concrete VM for one run: mapped load plan, loaded image,
/// scratch region, and a scripted device over the MMIO window and the
/// whole port space. Returns the VM and the device's bus index.
fn build_vm(dut: &DriverUnderTest, plan: &LoadPlan, hw_values: Vec<u32>) -> (Vm, usize) {
    let mut vm = Vm::new();
    for (start, len) in plan.regions() {
        vm.mem.map(start, len);
    }
    vm.load_image(&plan.image);
    vm.mem.map(crate::machine::SCRATCH_BASE, crate::machine::SCRATCH_SIZE);
    let dev = vm.bus.add_device(Box::new(ScriptedDevice::new(hw_values)));
    vm.bus.map_mmio(
        ddt_kernel::state::DEVICE_MMIO_BASE,
        dut.descriptor.mmio_len,
        dev,
    );
    vm.bus.map_ports(0, 0x1_0000, dev);
    (vm, dev)
}

impl ConcreteRunner {
    /// Builds a runner for a driver with scripted hardware read values.
    pub fn new(dut: &DriverUnderTest, hw_values: Vec<u32>) -> ConcreteRunner {
        let plan = LoadPlan::new(dut.image.clone());
        let (vm, dev) = build_vm(dut, &plan, hw_values);
        let mut kernel = Kernel::new();
        for (k, v) in &dut.registry {
            kernel.state.registry.insert(k.clone(), *v);
        }
        kernel.state.device = dut.descriptor.clone();
        let entry = plan.driver_entry();
        let pristine = (vm.cpu.clone(), vm.mem.clone());
        let mut runner = ConcreteRunner {
            vm,
            kernel,
            workload: dut.workload.clone(),
            workload_pos: 0,
            frames: Vec::new(),
            scratch: crate::machine::SCRATCH_BASE,
            inject_at: Vec::new(),
            lifecycle_at: Vec::new(),
            fail_at: Vec::new(),
            fault_at: Vec::new(),
            kernel_calls: 0,
            boundaries: 0,
            overrides: InputOverrides::default(),
            insn_budget: 2_000_000,
            dev,
            events_cursor: 0,
            removal_marks: None,
            pnp_writes_mark: 0,
            resume_without_writes: false,
            pristine,
            entry,
        };
        let entry = runner.entry.clone();
        runner.invoke(&entry, FrameKind::Entry, false);
        runner
    }

    /// Re-arms the runner for a fresh execution of the same driver.
    /// Snapshot-reset: cpu and memory restore from the pristine post-load
    /// clone, the scripted device is re-armed in place, and the kernel's
    /// run state resets (configuration — registry and device descriptor —
    /// survives via `KernelState::reset_for_run`). No allocation-heavy VM
    /// rebuild; this is what makes the fuzz loop's per-execution cost the
    /// execution itself.
    pub fn reset(&mut self, _dut: &DriverUnderTest, hw_values: Vec<u32>) {
        self.vm.cpu = self.pristine.0.clone();
        self.vm.mem = self.pristine.1.clone();
        self.vm.insns_retired = 0;
        if let Some(d) = self
            .vm
            .bus
            .device_mut(self.dev)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<ScriptedDevice>())
        {
            d.rescript(hw_values);
        }
        self.kernel.state.reset_for_run();
        self.workload_pos = 0;
        self.frames.clear();
        self.scratch = crate::machine::SCRATCH_BASE;
        self.inject_at.clear();
        self.lifecycle_at.clear();
        self.fail_at.clear();
        self.fault_at.clear();
        self.kernel_calls = 0;
        self.boundaries = 0;
        self.overrides = InputOverrides::default();
        self.events_cursor = 0;
        self.removal_marks = None;
        self.pnp_writes_mark = 0;
        self.resume_without_writes = false;
        let entry = self.entry.clone();
        self.invoke(&entry, FrameKind::Entry, false);
    }

    /// Applies a fuzz input: interrupt boundaries, forced allocation
    /// failures, and per-label value queues (hardware read values were
    /// already scripted into the device at construction/reset).
    pub fn apply_fuzz_input(&mut self, input: &FuzzInput) {
        self.inject_at = input.inject_at.clone();
        self.lifecycle_at = input
            .lifecycle
            .iter()
            .filter_map(|&(b, code)| {
                LifecycleEvent::from_code(code as u32).map(|ev| (b, ev))
            })
            .collect();
        self.fail_at = input.fail_at.clone();
        let mut values: HashMap<String, VecDeque<u64>> = HashMap::new();
        for (label, v) in &input.labels {
            values.entry(label.clone()).or_default().push_back(*v);
        }
        for (label, q) in &values {
            if let Some(name) = label.strip_prefix("registry:") {
                if let Some(&v) = q.front() {
                    self.kernel.state.registry.insert(name.to_string(), v as u32);
                }
            }
        }
        self.overrides = InputOverrides { values };
    }

    /// The hardware reads the scripted device actually served this run:
    /// `(addr, size, value)` in order. The escalation bridge replays these
    /// as symbol pins so the lifted state starts on the concrete path.
    pub fn hardware_served(&mut self) -> Vec<(u32, u8, u32)> {
        self.vm
            .bus
            .device_mut(self.dev)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<ScriptedDevice>())
            .map(|d| d.served.clone())
            .unwrap_or_default()
    }

    /// Applies a bug's decision schedule and solved inputs.
    pub fn apply_bug(&mut self, bug: &Bug) {
        for d in &bug.decisions {
            match d {
                Decision::InjectInterrupt { boundary } => self.inject_at.push(*boundary),
                Decision::LifecycleEvent { boundary, event } => {
                    self.lifecycle_at.push((*boundary, *event))
                }
                Decision::ForceAllocFail { kernel_call } => self.fail_at.push(*kernel_call),
                Decision::InjectFault { site, kind } => self.fault_at.push((*site, *kind)),
                // Backtracked concretizations are fully captured by the
                // solved inputs; nothing to re-apply.
                Decision::ConcretizationBacktrack { .. } => {}
            }
        }
        self.overrides = InputOverrides::from_bug(bug);
        // Registry parameters take their model values.
        for (label, q) in &self.overrides.values {
            if let Some(name) = label.strip_prefix("registry:") {
                if let Some(&v) = q.front() {
                    self.kernel.state.registry.insert(name.to_string(), v as u32);
                }
            }
        }
    }

    fn alloc_scratch(&mut self, len: u32) -> u32 {
        let addr = self.scratch.next_multiple_of(8);
        self.scratch = addr + len;
        addr
    }

    fn invoke(&mut self, inv: &EntryInvocation, kind: FrameKind, keep_sp: bool) {
        let saved = if kind == FrameKind::Entry {
            None
        } else {
            Some((
                self.vm.cpu.regs,
                self.vm.cpu.pc,
                self.kernel.state.irql,
                self.kernel.state.context,
            ))
        };
        let sp_before = self.vm.cpu.get(Reg::SP);
        for (reg, v) in inv.reg_values() {
            self.vm.cpu.set(reg, v);
        }
        if keep_sp {
            self.vm.cpu.set(Reg::SP, sp_before);
        }
        self.vm.cpu.pc = inv.addr;
        self.frames.push(CFrame { kind, saved, name: inv.name.clone() });
    }

    /// Returns `true` when an injected callback frame now owns the pc; the
    /// caller must not redirect execution (e.g. to the next workload op)
    /// until that frame pops.
    fn maybe_inject(&mut self) -> bool {
        self.boundaries += 1;
        // The symbolic exerciser records the post-increment index; and like
        // it, a boundary delivers at most one event — interrupt first.
        let b = self.boundaries;
        if self.inject_interrupt(b) {
            return true;
        }
        self.inject_lifecycle(b)
    }

    fn inject_interrupt(&mut self, b: u64) -> bool {
        // Like the symbolic fork site, only a nested frame blocks delivery: an
        // interrupt at a workload boundary, between entry points, fires too.
        if !self.inject_at.contains(&b) || self.frames.len() > 1 {
            return false;
        }
        // A removed or powered-down device raises no interrupts.
        if !self.kernel.state.device_present
            || self.kernel.state.power != DevicePowerState::D0
        {
            return false;
        }
        let Some(table) = self.kernel.state.miniport.clone() else { return false };
        if table.isr == 0 || self.kernel.state.interrupt.is_none() {
            return false;
        }
        self.kernel.state.context = ExecContext::Isr;
        self.kernel.state.irql = Irql::Device;
        let inv = EntryInvocation::new("Isr", table.isr, [0; 4]);
        self.invoke(&inv, FrameKind::Isr, true);
        true
    }

    fn inject_lifecycle(&mut self, b: u64) -> bool {
        let Some(&(_, event)) = self.lifecycle_at.iter().find(|(at, _)| *at == b) else {
            return false;
        };
        if self.frames.len() > 1 {
            return false;
        }
        let s = &self.kernel.state;
        if s.pnp_handler == 0 || !s.device_present || s.irql != Irql::Passive {
            return false;
        }
        self.deliver_lifecycle(event, true);
        true
    }

    /// Counts of `(reads served, writes observed)` on the scripted device.
    fn device_counters(&mut self) -> (usize, usize) {
        self.vm
            .bus
            .device_mut(self.dev)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<ScriptedDevice>())
            .map(|d| (d.served.len(), d.writes.len()))
            .unwrap_or((0, 0))
    }

    /// True when any hardware access happened after a surprise removal.
    pub fn hw_touched_after_remove(&mut self) -> bool {
        let Some((reads, writes)) = self.removal_marks else { return false };
        let (now_reads, now_writes) = self.device_counters();
        now_reads > reads || now_writes > writes
    }

    /// Delivers a lifecycle event: the presence/power state machine advances
    /// first, then the driver's PnP-notification handler runs at passive
    /// level. Mirrors the symbolic executor's `deliver_lifecycle`.
    fn deliver_lifecycle(&mut self, event: LifecycleEvent, keep_sp: bool) {
        match event {
            LifecycleEvent::SurpriseRemove => {
                self.kernel.state.surprise_remove();
                if self.removal_marks.is_none() {
                    self.removal_marks = Some(self.device_counters());
                }
            }
            LifecycleEvent::Suspend => self.kernel.state.set_power(DevicePowerState::D3),
            LifecycleEvent::Resume => self.kernel.state.set_power(DevicePowerState::D0),
        }
        self.pnp_writes_mark = self.device_counters().1;
        self.kernel.state.context = ExecContext::Passive;
        self.kernel.state.irql = Irql::Passive;
        let handler = self.kernel.state.pnp_handler;
        let context = self.kernel.state.pnp_context;
        let inv = EntryInvocation::new(
            event.invocation_name(),
            handler,
            [context, event.code(), 0, 0],
        );
        self.invoke(&inv, FrameKind::Pnp(event), keep_sp);
    }

    /// Handles one VM event; `Some` is a terminal outcome.
    fn dispatch(&mut self, event: StepEvent) -> Option<ConcreteOutcome> {
        match event {
            StepEvent::Continue => None,
            StepEvent::Halted => Some(ConcreteOutcome::Completed),
            StepEvent::Faulted(f) => {
                let in_interrupt = self.frames.len() > 1;
                Some(ConcreteOutcome::Faulted { fault: f, in_interrupt })
            }
            StepEvent::KernelCall { export_id, return_to } => {
                if self.fail_at.contains(&self.kernel_calls) {
                    self.kernel.state.force_alloc_failures = 1;
                }
                if let Some(&(_, kind)) =
                    self.fault_at.iter().find(|(s, _)| *s == self.kernel_calls)
                {
                    self.kernel.state.inject_fault = Some(kind);
                }
                self.kernel_calls += 1;
                let r = {
                    let mut host = VmHost { vm: &mut self.vm };
                    self.kernel.invoke(export_id, &mut host)
                };
                if let Err(crash) = r {
                    return Some(ConcreteOutcome::Crashed(crash));
                }
                self.vm.cpu.pc = return_to;
                self.maybe_inject();
                None
            }
            StepEvent::ReturnToKernel => self.handle_return(),
        }
    }

    /// Runs to a terminal outcome, one instruction at a time.
    pub fn run(&mut self) -> ConcreteOutcome {
        let mut spin = SpinGuard::new(self.vm.insns_retired);
        loop {
            if self.vm.insns_retired > self.insn_budget {
                return ConcreteOutcome::Hung;
            }
            let event = self.vm.step();
            if let Some(outcome) = self.dispatch(event) {
                return outcome;
            }
            if spin.stuck(self.vm.insns_retired) {
                return ConcreteOutcome::Hung;
            }
        }
    }

    /// Runs to a terminal outcome on the translated superblock executor.
    /// Same semantics as [`run`](Self::run) — the kernel boundary, the
    /// injection schedule, and the outcome classification are shared — but
    /// driver code executes through `cache`d pre-decoded blocks, and every
    /// dispatched block entry pc is appended to `block_trace` (the concrete
    /// coverage feed). The cache is only valid across runs of the same
    /// driver image.
    pub fn run_fast(
        &mut self,
        cache: &mut BlockCache,
        block_trace: &mut Vec<u32>,
    ) -> ConcreteOutcome {
        let mut spin = SpinGuard::new(self.vm.insns_retired);
        loop {
            if self.vm.insns_retired > self.insn_budget {
                return ConcreteOutcome::Hung;
            }
            let slice = self.insn_budget - self.vm.insns_retired + 1;
            let event = self.vm.run_fast(slice, cache, block_trace);
            if let Some(outcome) = self.dispatch(event) {
                return outcome;
            }
            if spin.stuck(self.vm.insns_retired) {
                return ConcreteOutcome::Hung;
            }
        }
    }

    fn handle_return(&mut self) -> Option<ConcreteOutcome> {
        let status = self.vm.cpu.regs[0];
        let Some(frame) = self.frames.pop() else {
            // A deferred callback (timer/DPC) fired at a workload boundary:
            // the entry it interrupted had already returned, so the restored
            // pc is the return trap and the frame stack is empty. Resume the
            // workload — without this the trap re-fires forever with no
            // instructions retiring.
            return self.schedule_next_op();
        };
        match frame.kind {
            FrameKind::Entry => {
                if frame.name == "Initialize" && status != 0 {
                    let mut kinds = Vec::new();
                    for kind in [
                        ResourceKind::PoolMemory,
                        ResourceKind::ConfigHandle,
                        ResourceKind::Packet,
                        ResourceKind::Buffer,
                        ResourceKind::Pool,
                        ResourceKind::DmaChannel,
                    ] {
                        if self.kernel.state.live_resources(kind) > 0 {
                            kinds.push(kind);
                        }
                    }
                    return Some(if kinds.is_empty() {
                        ConcreteOutcome::Completed
                    } else {
                        ConcreteOutcome::InitFailureLeak { kinds }
                    });
                }
                if frame.name == "DriverEntry" && self.kernel.state.miniport.is_none() {
                    return Some(ConcreteOutcome::Completed);
                }
                if self.maybe_inject() {
                    // The injected callback runs first; the workload resumes
                    // when its frame pops.
                    return None;
                }
                self.schedule_next_op()
            }
            FrameKind::Isr => {
                let (regs, pc, irql, ctx) = frame.saved.expect("nested frame saves");
                let table = self.kernel.state.miniport.clone().unwrap_or_default();
                if status != 0 && table.handle_interrupt != 0 {
                    // Restore happens after the DPC.
                    self.kernel.state.context = ExecContext::Dpc;
                    self.kernel.state.irql = Irql::Dispatch;
                    let inv =
                        EntryInvocation::new("HandleInterrupt", table.handle_interrupt, [0; 4]);
                    let sp = self.vm.cpu.get(Reg::SP);
                    for (reg, v) in inv.reg_values() {
                        self.vm.cpu.set(reg, v);
                    }
                    self.vm.cpu.set(Reg::SP, sp);
                    self.vm.cpu.pc = inv.addr;
                    self.frames.push(CFrame {
                        kind: FrameKind::Dpc,
                        saved: Some((regs, pc, irql, ctx)),
                        name: "HandleInterrupt".into(),
                    });
                    None
                } else {
                    self.restore(regs, pc, irql, ctx);
                    None
                }
            }
            FrameKind::Dpc | FrameKind::Timer => {
                let (regs, pc, irql, ctx) = frame.saved.expect("nested frame saves");
                self.restore(regs, pc, irql, ctx);
                None
            }
            FrameKind::Pnp(event) => {
                if event == LifecycleEvent::Resume
                    && self.device_counters().1 == self.pnp_writes_mark
                {
                    self.resume_without_writes = true;
                }
                if self.frames.is_empty() {
                    // Workload-level delivery: the handler ran between entry
                    // points, so resume the workload.
                    if self.maybe_inject() {
                        return None;
                    }
                    self.schedule_next_op()
                } else {
                    // Mid-quantum injection: resume the interrupted entry.
                    let (regs, pc, irql, ctx) = frame.saved.expect("nested frame saves");
                    self.restore(regs, pc, irql, ctx);
                    None
                }
            }
        }
    }

    fn restore(&mut self, regs: [u32; 16], pc: u32, irql: Irql, ctx: ExecContext) {
        self.vm.cpu.regs = regs;
        self.vm.cpu.pc = pc;
        self.kernel.state.irql = irql;
        self.kernel.state.context = ctx;
    }

    fn schedule_next_op(&mut self) -> Option<ConcreteOutcome> {
        loop {
            let Some(op) = self.workload.get(self.workload_pos).cloned() else {
                return Some(ConcreteOutcome::Completed);
            };
            self.workload_pos += 1;
            let handle = self.kernel.state.adapter_handle;
            let table = self.kernel.state.miniport.clone().unwrap_or_default();
            self.kernel.state.context = ExecContext::Passive;
            self.kernel.state.irql = Irql::Passive;
            let inv = match &op {
                WorkloadOp::Initialize => {
                    EntryInvocation::new("Initialize", table.initialize, [handle, 0, 0, 0])
                }
                WorkloadOp::Send { len, fill } => {
                    if table.send == 0 {
                        continue;
                    }
                    let data = self.alloc_scratch((*len).max(4));
                    let plen = self
                        .overrides
                        .take("packet_len")
                        .map(|v| (v as u32).clamp(1, *len))
                        .unwrap_or(*len);
                    for i in 0..*len {
                        let b = self
                            .overrides
                            .take(&format!("packet[{i}]"))
                            .map(|v| v as u8)
                            .unwrap_or(*fill);
                        let _ = self.vm.mem.write_u8(data + i, b);
                    }
                    let desc = self.alloc_scratch(16);
                    let _ = self.vm.mem.write(desc, 4, data as u64);
                    let _ = self.vm.mem.write(desc + 4, 4, plen as u64);
                    EntryInvocation::new("Send", table.send, [handle, desc, 0, 0])
                }
                WorkloadOp::Query { oid, len } => {
                    if table.query_information == 0 {
                        continue;
                    }
                    let buf = self.alloc_scratch(*len);
                    let oid_v = self
                        .overrides
                        .take("QueryInformation:oid")
                        .map(|v| v as u32)
                        .unwrap_or(*oid);
                    EntryInvocation::new(
                        "QueryInformation",
                        table.query_information,
                        [handle, oid_v, buf, *len],
                    )
                }
                WorkloadOp::Set { oid, len, value } => {
                    if table.set_information == 0 {
                        continue;
                    }
                    let buf = self.alloc_scratch(*len);
                    let _ = self.vm.mem.write(buf, 4, *value as u64);
                    let oid_v = self
                        .overrides
                        .take("SetInformation:oid")
                        .map(|v| v as u32)
                        .unwrap_or(*oid);
                    EntryInvocation::new(
                        "SetInformation",
                        table.set_information,
                        [handle, oid_v, buf, *len],
                    )
                }
                WorkloadOp::FireTimers => {
                    self.kernel.state.now_us += 200_000;
                    let now_ms = self.kernel.state.now_us / 1000;
                    let due: Option<(u32, u32, u32)> = self
                        .kernel
                        .state
                        .timers
                        .iter()
                        .filter(|(_, t)| t.initialized && t.due.is_some_and(|d| d <= now_ms))
                        .map(|(&a, t)| (a, t.callback, t.context))
                        .next();
                    match due {
                        None => continue,
                        Some((timer, callback, context)) => {
                            if let Some(t) = self.kernel.state.timers.get_mut(&timer) {
                                t.due = None;
                            }
                            if callback == 0 {
                                continue;
                            }
                            self.workload_pos -= 1;
                            self.kernel.state.context = ExecContext::Dpc;
                            self.kernel.state.irql = Irql::Dispatch;
                            let inv = EntryInvocation::new(
                                "TimerCallback",
                                callback,
                                [context, 0, 0, 0],
                            );
                            self.invoke(&inv, FrameKind::Timer, false);
                            return None;
                        }
                    }
                }
                WorkloadOp::Reset => {
                    if table.reset == 0 {
                        continue;
                    }
                    EntryInvocation::new("Reset", table.reset, [handle, 0, 0, 0])
                }
                WorkloadOp::CheckForHang => {
                    if table.check_for_hang == 0 {
                        continue;
                    }
                    EntryInvocation::new("CheckForHang", table.check_for_hang, [handle, 0, 0, 0])
                }
                WorkloadOp::Aux => {
                    if table.aux == 0 {
                        continue;
                    }
                    EntryInvocation::new("Aux", table.aux, [handle, 0, 0, 0])
                }
                WorkloadOp::Halt => {
                    if table.halt == 0 {
                        continue;
                    }
                    EntryInvocation::new("Halt", table.halt, [handle, 0, 0, 0])
                }
                WorkloadOp::SurpriseRemove | WorkloadOp::Suspend | WorkloadOp::Resume => {
                    if self.kernel.state.pnp_handler == 0
                        || !self.kernel.state.device_present
                    {
                        continue;
                    }
                    let event = match op {
                        WorkloadOp::SurpriseRemove => LifecycleEvent::SurpriseRemove,
                        WorkloadOp::Suspend => LifecycleEvent::Suspend,
                        _ => LifecycleEvent::Resume,
                    };
                    self.deliver_lifecycle(event, false);
                    return None;
                }
            };
            self.invoke(&inv, FrameKind::Entry, false);
            return None;
        }
    }

    /// Name of the innermost driver frame currently executing (the entry
    /// a terminal outcome is attributed to). "DriverEntry" when the frame
    /// stack has unwound.
    pub fn current_entry(&self) -> String {
        self.frames
            .last()
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "DriverEntry".to_string())
    }

    /// The interrupted entry point, when an ISR/DPC/timer frame is active
    /// on top of it.
    pub fn interrupted_entry(&self) -> Option<String> {
        (self.frames.len() > 1).then(|| self.frames[0].name.clone())
    }

    /// Kernel events appended since the last call (for usage checkers).
    pub fn new_events(&mut self) -> Vec<KernelEvent> {
        let evs = self.kernel.state.events[self.events_cursor..].to_vec();
        self.events_cursor = self.kernel.state.events.len();
        evs
    }

}

/// The decision schedules of a bug set, keyed and sorted by dedup key — the
/// canonical form for differential comparison. Two explorations are
/// schedule-identical iff their streams are equal: same bugs, and for each
/// bug the same interrupt injections, forced failures, and backtracks in the
/// same order. The cached-vs-uncached harness asserts exactly this.
pub fn decision_streams(bugs: &[Bug]) -> Vec<(String, Vec<Decision>)> {
    let mut streams: Vec<(String, Vec<Decision>)> =
        bugs.iter().map(|b| (b.key.clone(), b.decisions.clone())).collect();
    streams.sort_by(|a, b| a.0.cmp(&b.0));
    streams
}

/// Replays a bug concretely and checks the same failure class fires.
pub fn replay_bug(dut: &DriverUnderTest, bug: &Bug) -> ReplayOutcome {
    // Hardware read values in trace order, from the solved model.
    let hw_values: Vec<u32> = bug
        .trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::HardwareRead { id, .. } => Some(bug.inputs.get_or_zero(*id) as u32),
            _ => None,
        })
        .collect();
    let mut runner = ConcreteRunner::new(dut, hw_values);
    runner.apply_bug(bug);
    let outcome = runner.run();
    let variant_mismatch = runner
        .kernel
        .state
        .events
        .iter()
        .any(|e| matches!(e, KernelEvent::SpinRelease { variant_mismatch: true, .. }));
    let fault_fired = runner
        .kernel
        .state
        .events
        .iter()
        .any(|e| matches!(e, KernelEvent::FaultInjected { .. }));
    let observed = format!("{outcome:?}");
    let touched_after_remove = runner.hw_touched_after_remove();
    let removed = runner
        .kernel
        .state
        .events
        .iter()
        .any(|e| matches!(e, KernelEvent::DeviceSurpriseRemoved));
    let reproduced = match bug.class {
        BugClass::SegFault | BugClass::MemoryCorruption => {
            matches!(outcome, ConcreteOutcome::Faulted { .. })
        }
        BugClass::RaceCondition => matches!(
            outcome,
            ConcreteOutcome::Faulted { .. } | ConcreteOutcome::Crashed(_)
        ),
        BugClass::KernelCrash => {
            matches!(outcome, ConcreteOutcome::Crashed(_)) || variant_mismatch
        }
        BugClass::KernelHang => {
            matches!(outcome, ConcreteOutcome::Crashed(_) | ConcreteOutcome::Hung)
                || variant_mismatch
        }
        BugClass::ResourceLeak | BugClass::MemoryLeak => {
            matches!(outcome, ConcreteOutcome::InitFailureLeak { .. })
                || runner.kernel.state.live_resources(ResourceKind::ConfigHandle) > 0
        }
        // The evidence for an unchecked failure is the scheduled fault
        // actually firing while the driver proceeds as if nothing happened:
        // it completes, or blows up downstream on the unacquired resource.
        // An `InitFailureLeak` would mean Initialize *did* propagate the
        // failure — not reproduced.
        BugClass::UncheckedFailure => {
            fault_fired
                && matches!(
                    outcome,
                    ConcreteOutcome::Completed
                        | ConcreteOutcome::Faulted { .. }
                        | ConcreteOutcome::Crashed(_)
                )
        }
        // The evidence for a lifecycle violation is the same misbehavior
        // observed concretely: hardware touched after the device vanished,
        // or a resume handler that reprogrammed nothing. A downstream
        // fault/crash on the removed device also counts — concretely the
        // stale access often escalates.
        BugClass::LifecycleViolation => {
            (removed && touched_after_remove)
                || runner.resume_without_writes
                || (removed
                    && matches!(
                        outcome,
                        ConcreteOutcome::Faulted { .. } | ConcreteOutcome::Crashed(_)
                    ))
        }
    };
    if reproduced {
        ReplayOutcome::Reproduced { observed }
    } else {
        ReplayOutcome::NotReproduced { observed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exerciser::DriverUnderTest;

    #[test]
    fn concrete_runner_completes_clean_driver() {
        let dut = DriverUnderTest::from_spec(&ddt_drivers::clean_driver());
        let mut runner = ConcreteRunner::new(&dut, vec![]);
        assert_eq!(runner.run(), ConcreteOutcome::Completed);
        assert!(runner.vm.insns_retired > 100);
        // The kernel saw the whole workload: a send completed.
        assert!(!runner.kernel.state.completed_sends.is_empty());
    }

    #[test]
    fn forced_alloc_failure_reaches_leak_outcome() {
        let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let mut runner = ConcreteRunner::new(&dut, vec![]);
        // pcnet's DMA shadow block (allocation "B") is kernel call #8 on
        // the concrete path — the same index DDT's decision schedule
        // records. Failing it leaks the earlier allocations.
        runner.fail_at = vec![8];
        match runner.run() {
            ConcreteOutcome::InitFailureLeak { kinds } => {
                assert!(kinds.contains(&ResourceKind::PoolMemory), "{kinds:?}");
                assert!(kinds.contains(&ResourceKind::Packet), "{kinds:?}");
            }
            other => panic!("expected the leak outcome, got {other:?}"),
        }
    }

    #[test]
    fn scripted_interrupt_fires_at_the_boundary() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let mut runner = ConcreteRunner::new(&dut, vec![1, 1, 1, 1]);
        // Inject at every early boundary; with status bit 0 set the ISR
        // arms the (not yet initialized) timer → kernel crash.
        runner.inject_at = (1..16).collect();
        match runner.run() {
            ConcreteOutcome::Crashed(c) => {
                assert!(c.message.contains("uninitialized timer"), "{c:?}");
            }
            other => panic!("expected the timer crash, got {other:?}"),
        }
    }

    #[test]
    fn fast_runner_matches_the_interpreter() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let mut slow = ConcreteRunner::new(&dut, vec![1, 1, 1, 1]);
        slow.inject_at = (1..16).collect();
        let slow_out = slow.run();
        let mut fast = ConcreteRunner::new(&dut, vec![1, 1, 1, 1]);
        fast.inject_at = (1..16).collect();
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        let fast_out = fast.run_fast(&mut cache, &mut trace);
        assert_eq!(fast_out, slow_out, "same outcome on both executors");
        assert_eq!(
            fast.vm.insns_retired, slow.vm.insns_retired,
            "same path, instruction for instruction"
        );
        assert!(!cache.is_empty(), "superblocks were translated");
        assert!(!trace.is_empty(), "block entries were traced");
    }

    #[test]
    fn recycled_runner_reproduces_fresh_behavior() {
        let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let mut runner = ConcreteRunner::new(&dut, vec![]);
        runner.fail_at = vec![8];
        let first = runner.run();
        assert!(matches!(first, ConcreteOutcome::InitFailureLeak { .. }));
        // Reset without the failure schedule: the driver completes.
        runner.reset(&dut, vec![]);
        assert_eq!(runner.run(), ConcreteOutcome::Completed);
        // Reset with it again: same outcome as the fresh runner.
        runner.reset(&dut, vec![]);
        runner.fail_at = vec![8];
        assert_eq!(runner.run(), first);
    }

    #[test]
    fn fuzz_input_drives_the_runner_and_serves_back_values() {
        let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let input = FuzzInput {
            hw: vec![1, 1, 1, 1],
            labels: vec![],
            inject_at: (1..16).collect(),
            fail_at: vec![],
            lifecycle: vec![],
        };
        let mut runner = ConcreteRunner::new(&dut, input.hw.clone());
        runner.apply_fuzz_input(&input);
        let mut cache = BlockCache::new();
        let mut trace = Vec::new();
        match runner.run_fast(&mut cache, &mut trace) {
            ConcreteOutcome::Crashed(c) => {
                assert!(c.message.contains("uninitialized timer"), "{c:?}");
            }
            other => panic!("expected the timer crash, got {other:?}"),
        }
        let served = runner.hardware_served();
        assert!(!served.is_empty(), "the device recorded what it served");
        assert_eq!(served[0].2, 1, "first read served the scripted value");
    }

    #[test]
    fn input_overrides_queue_per_label() {
        let mut ov = InputOverrides::default();
        ov.values.entry("x".into()).or_default().extend([1u64, 2, 3]);
        assert_eq!(ov.take("x"), Some(1));
        assert_eq!(ov.take("x"), Some(2));
        assert_eq!(ov.take("y"), None);
    }
}
