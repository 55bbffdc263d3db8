//===- vm/Machine.cpp - Simulator for SXF executables ---------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "isa/AriscEncoding.h"
#include "isa/MriscEncoding.h"
#include "isa/SriscEncoding.h"
#include "support/Error.h"

#include <cstring>

using namespace eel;

// --- VmMemory ---------------------------------------------------------------

const uint8_t *VmMemory::pageFor(Addr A) const {
  uint32_t Page = A >> PageBits;
  auto It = Pages.find(Page);
  if (It != Pages.end())
    return It->second.get();
  // Reads of untouched memory observe zeros without allocating.
  static const uint8_t Zeros[PageSize] = {0};
  return Zeros;
}

uint8_t *VmMemory::mutablePageFor(Addr A) {
  uint32_t Page = A >> PageBits;
  std::unique_ptr<uint8_t[]> &Slot = Pages[Page];
  if (!Slot) {
    Slot.reset(new uint8_t[PageSize]);
    std::memset(Slot.get(), 0, PageSize);
  }
  return Slot.get();
}

uint8_t VmMemory::readByte(Addr A) const {
  return pageFor(A)[A & (PageSize - 1)];
}

void VmMemory::writeByte(Addr A, uint8_t B) {
  mutablePageFor(A)[A & (PageSize - 1)] = B;
}

uint32_t VmMemory::readWord(Addr A) const {
  assert((A & 3) == 0 && "misaligned word read");
  const uint8_t *Page = pageFor(A);
  uint32_t Off = A & (PageSize - 1);
  return static_cast<uint32_t>(Page[Off]) |
         (static_cast<uint32_t>(Page[Off + 1]) << 8) |
         (static_cast<uint32_t>(Page[Off + 2]) << 16) |
         (static_cast<uint32_t>(Page[Off + 3]) << 24);
}

void VmMemory::writeWord(Addr A, uint32_t W) {
  assert((A & 3) == 0 && "misaligned word write");
  uint8_t *Page = mutablePageFor(A);
  uint32_t Off = A & (PageSize - 1);
  Page[Off] = static_cast<uint8_t>(W);
  Page[Off + 1] = static_cast<uint8_t>(W >> 8);
  Page[Off + 2] = static_cast<uint8_t>(W >> 16);
  Page[Off + 3] = static_cast<uint8_t>(W >> 24);
}

uint16_t VmMemory::readHalf(Addr A) const {
  assert((A & 1) == 0 && "misaligned half read");
  const uint8_t *Page = pageFor(A);
  uint32_t Off = A & (PageSize - 1);
  return static_cast<uint16_t>(Page[Off] |
                               (static_cast<uint16_t>(Page[Off + 1]) << 8));
}

void VmMemory::writeHalf(Addr A, uint16_t H) {
  assert((A & 1) == 0 && "misaligned half write");
  uint8_t *Page = mutablePageFor(A);
  uint32_t Off = A & (PageSize - 1);
  Page[Off] = static_cast<uint8_t>(H);
  Page[Off + 1] = static_cast<uint8_t>(H >> 8);
}

void VmMemory::writeBytes(Addr A, const uint8_t *Data, size_t N) {
  for (size_t I = 0; I < N; ++I)
    writeByte(A + static_cast<Addr>(I), Data[I]);
}

// --- Machine ----------------------------------------------------------------

Machine::Machine(const SxfFile &File) : Arch(File.Arch) {
  Addr HighWater = 0;
  for (const SxfSegment &Seg : File.Segments) {
    if (!Seg.Bytes.empty())
      Mem.writeBytes(Seg.VAddr, Seg.Bytes.data(), Seg.Bytes.size());
    HighWater = std::max(HighWater, Seg.VAddr + Seg.MemSize);
  }
  Break = (HighWater + 15) & ~15u;
  Cpu.PC = File.Entry;
  Cpu.NPC = File.Entry + 4;
  const TargetConventions &Conv = targetFor(Arch).conventions();
  Cpu.Regs[Conv.StackPointer] = 0x7FF00000u;
  // Returning from the entry routine ends the program. The link register is
  // primed so that the conventional return sequence lands on ExitMagic:
  // SRISC returns to link+8, MRISC and ARISC to link+0.
  Cpu.Regs[Conv.LinkReg] = ExitMagic - static_cast<Addr>(Conv.ReturnOffset);
  RegSet::iterator Arg = Conv.ArgRegs.begin();
  for (unsigned &Reg : TrapArgs) {
    Reg = *Arg;
    ++Arg;
  }
  RetReg = Conv.RetRegs.first();
}

RunResult eel::runToCompletion(const SxfFile &File, uint64_t MaxSteps) {
  Machine M(File);
  return M.run(MaxSteps);
}

// run() instantiates the loop once per ISA, with that ISA's step inlined
// into it. The instances stay out of line: inlined into run() together they
// would outgrow the inliner's budget and leave a step as a call.
template <typename StepT>
[[gnu::noinline]] RunResult Machine::loop(const StepT &Step, bool DelaySlots,
                                          uint64_t MaxSteps) {
  RunResult Result;
  // The (PC, NPC) pair lives in locals while the loop runs and goes back to
  // Cpu when it stops; neither the steps nor the hooks read it from Cpu.
  Addr PC = Cpu.PC, NPC = Cpu.NPC;
  uint64_t StepNo = 0;
  for (; StepNo < MaxSteps; ++StepNo) {
    if (PC == ExitMagic) {
      Result.Reason = StopReason::Exited;
      Result.ExitCode = static_cast<int>(Cpu.Regs[RetReg]);
      break;
    }
    if (PC & 3) {
      Result.Reason = StopReason::BadAlignment;
      Result.FaultPC = PC;
      break;
    }
    MachWord W = Mem.readWord(PC);
    if (OnInst)
      OnInst(PC, W);
    StepOutcome Out = Step(*this, PC, W);
    if (Out.Invalid || Out.BadAlign) {
      Result.Reason =
          Out.Invalid ? StopReason::BadInstruction : StopReason::BadAlignment;
      Result.FaultPC = PC;
      break;
    }
    ++Retired;
    if (Out.Exited) {
      Result.Reason = StopReason::Exited;
      Result.ExitCode = Out.ExitCode;
      break;
    }
    // With delay slots a taken transfer replaces NPC, so the slot executes
    // first, unless the transfer annuls it; without them the pair
    // degenerates to sequential fetch and a transfer takes effect at once.
    Addr Next = Out.Branch ? Out.Target : (DelaySlots ? NPC : PC) + 4;
    if (!DelaySlots || Out.Annul) {
      PC = Next;
      NPC = Next + 4;
    } else {
      PC = NPC;
      NPC = Next;
    }
  }
  if (StepNo == MaxSteps) { // the budget ran out, a zero budget included
    Result.Reason = StopReason::StepLimit;
    Result.FaultPC = PC;
  }
  Cpu.PC = PC;
  Cpu.NPC = NPC;
  Result.Instructions = Retired;
  Result.Output = Output;
  return Result;
}

RunResult Machine::runGeneric(const StepFn &Step, uint64_t MaxSteps) {
  return loop(Step, targetFor(Arch).branchDelaySlots(), MaxSteps);
}

std::optional<int> Machine::trap(unsigned Number) {
  uint32_t A0 = Cpu.Regs[TrapArgs[0]], A1 = Cpu.Regs[TrapArgs[1]],
           A2 = Cpu.Regs[TrapArgs[2]];
  uint32_t Result;
  switch (Number) {
  case SysExit:
    return static_cast<int>(A0);
  case SysWrite:
    if (A0 == 1)
      for (uint32_t I = 0; I < A2; ++I)
        Output.push_back(static_cast<char>(Mem.readByte(A1 + I)));
    Result = A2;
    break;
  case SysSbrk:
    Result = Break;
    Break += A0;
    break;
  case SysRead:
    Result = 0;
    break;
  case SysInstRet:
    Result = static_cast<uint32_t>(Retired);
    break;
  default:
    Result = static_cast<uint32_t>(-1);
    break;
  }
  Cpu.Regs[RetReg] = Result;
  return std::nullopt;
}

// --- Pieces the ISA steps share -----------------------------------------------

namespace {

/// The integer ALU: 5-bit shift amounts, wrapping multiply, signed divide
/// and remainder (x / 0 = 0, x % 0 = x, INT32_MIN / -1 = INT32_MIN,
/// INT32_MIN % -1 = 0), signed set-less-than.
inline uint32_t alu(DataOpKind Op, uint32_t A, uint32_t B) {
  int32_t SA = static_cast<int32_t>(A), SB = static_cast<int32_t>(B);
  switch (Op) {
  case DataOpKind::Add:
    return A + B;
  case DataOpKind::Sub:
    return A - B;
  case DataOpKind::And:
    return A & B;
  case DataOpKind::Or:
    return A | B;
  case DataOpKind::Xor:
    return A ^ B;
  case DataOpKind::Sll:
    return A << (B & 31);
  case DataOpKind::Srl:
    return A >> (B & 31);
  case DataOpKind::Sra:
    return static_cast<uint32_t>(SA >> (B & 31));
  case DataOpKind::Mul:
    // The low 32 bits of signed and unsigned products agree, and unsigned
    // overflow is defined.
    return A * B;
  case DataOpKind::Div:
    if (SB == 0)
      return 0;
    if (SA == INT32_MIN && SB == -1)
      return static_cast<uint32_t>(INT32_MIN);
    return static_cast<uint32_t>(SA / SB);
  case DataOpKind::Rem:
    if (SB == 0)
      return A;
    if (SA == INT32_MIN && SB == -1)
      return 0;
    return static_cast<uint32_t>(SA % SB);
  case DataOpKind::SetLess:
    return SA < SB ? 1 : 0;
  case DataOpKind::None:
  case DataOpKind::LoadImmHi:
    break;
  }
  unreachable("not an ALU operation");
}

/// How a memory instruction uses its effective address.
enum class MemMode { Load, LoadSigned, Store };

/// The one data access: OnMemory sees \p EffAddr, a misaligned access stops
/// the run unretired, and otherwise a \p Width-byte load (zero- or
/// sign-extended into \p Data unless it is the hard zero) or store of
/// \p Data happens.
inline StepOutcome access(Machine &M, Addr PC, Addr EffAddr, unsigned Width,
                          MemMode Mode, unsigned Data) {
  if (M.OnMemory)
    M.OnMemory(PC, EffAddr, Width, Mode == MemMode::Store);
  StepOutcome Out;
  if (EffAddr & (Width - 1)) {
    Out.BadAlign = true;
    return Out;
  }
  VmMemory &Mem = M.memory();
  uint32_t *R = M.cpu().Regs;
  if (Mode == MemMode::Store) {
    if (Width == 1)
      Mem.writeByte(EffAddr, static_cast<uint8_t>(R[Data]));
    else if (Width == 2)
      Mem.writeHalf(EffAddr, static_cast<uint16_t>(R[Data]));
    else
      Mem.writeWord(EffAddr, R[Data]);
    return Out;
  }
  uint32_t Value = Width == 1   ? Mem.readByte(EffAddr)
                   : Width == 2 ? Mem.readHalf(EffAddr)
                                : Mem.readWord(EffAddr);
  if (Mode == MemMode::LoadSigned)
    Value = static_cast<uint32_t>(signExtend(Value, Width * 8));
  if (Data)
    R[Data] = Value;
  return Out;
}

/// Writes \p Reg unless it is the hard-zero register (r0 on every ISA).
StepOutcome write(uint32_t *R, unsigned Reg, uint32_t Value) {
  if (Reg)
    R[Reg] = Value;
  return {};
}

/// A control transfer from \p PC to \p Target, taken or not, as OnTransfer
/// reports it.
StepOutcome transfer(Machine &M, Addr PC, Addr Target, bool Taken = true) {
  if (M.OnTransfer)
    M.OnTransfer(PC, Target, Taken);
  StepOutcome Out;
  Out.Branch = Taken;
  Out.Target = Target;
  return Out;
}

StepOutcome invalid() {
  StepOutcome Out;
  Out.Invalid = true;
  return Out;
}

/// Trap \p Number through the shared trap path; SysExit ends the run.
StepOutcome trap(Machine &M, unsigned Number) {
  StepOutcome Out;
  if (std::optional<int> Status = M.trap(Number)) {
    Out.Exited = true;
    Out.ExitCode = *Status;
  }
  return Out;
}

// --- SRISC --------------------------------------------------------------------

StepOutcome stepSrisc(Machine &M, Addr PC, MachWord W) {
  using namespace srisc;
  using enum DataOpKind;
  using enum MemMode;
  uint32_t *R = M.cpu().Regs;
  unsigned Rd = fieldRd(W);
  switch (fieldOp(W)) {
  case OpFormat2: {
    if (fieldOp2(W) == Op2Sethi)
      return write(R, Rd, fieldImm22(W) << 10);
    if (fieldOp2(W) != Op2Bicc)
      return invalid();
    Cond C = static_cast<Cond>(fieldCond(W));
    bool Taken = evalCond(C, R[RegIdCC]);
    Addr Target = PC + (static_cast<Addr>(fieldDisp22(W)) << 2);
    // bn transfers nowhere, so OnTransfer does not see it.
    StepOutcome Out =
        C == CondN ? StepOutcome() : transfer(M, PC, Target, Taken);
    // An annulled branch squashes its slot when untaken; ba,a always does.
    Out.Annul = fieldAnnul(W) && (C == CondA || !Taken);
    return Out;
  }
  case OpCall:
    R[RegLink] = PC;
    return transfer(M, PC, PC + (static_cast<Addr>(fieldDisp30(W)) << 2));
  }
  // Format 3, arithmetic and memory: rs1 and either rs2 or simm13.
  uint32_t A = R[fieldRs1(W)];
  uint32_t B = fieldI(W) ? static_cast<uint32_t>(fieldSimm13(W))
                         : R[fieldRs2(W)];
  if (fieldOp(W) == OpMem) {
    switch (fieldOp3(W)) {
    case Op3Ld:
      return access(M, PC, A + B, 4, Load, Rd);
    case Op3Ldub:
      return access(M, PC, A + B, 1, Load, Rd);
    case Op3Lduh:
      return access(M, PC, A + B, 2, Load, Rd);
    case Op3Ldsb:
      return access(M, PC, A + B, 1, LoadSigned, Rd);
    case Op3Ldsh:
      return access(M, PC, A + B, 2, LoadSigned, Rd);
    case Op3St:
      return access(M, PC, A + B, 4, Store, Rd);
    case Op3Stb:
      return access(M, PC, A + B, 1, Store, Rd);
    case Op3Sth:
      return access(M, PC, A + B, 2, Store, Rd);
    default:
      return invalid();
    }
  }
  // The *cc forms also write the condition codes: add and sub their own,
  // the logical forms those of the result.
  auto WriteCC = [&](DataOpKind Op) {
    uint32_t Value = alu(Op, A, B);
    R[RegIdCC] = Op == Add   ? ccForAdd(A, B)
                 : Op == Sub ? ccForSub(A, B)
                             : ccForLogic(Value);
    return write(R, Rd, Value);
  };
  switch (fieldOp3(W)) {
  case Op3Add:
    return write(R, Rd, alu(Add, A, B));
  case Op3And:
    return write(R, Rd, alu(And, A, B));
  case Op3Or:
    return write(R, Rd, alu(Or, A, B));
  case Op3Xor:
    return write(R, Rd, alu(Xor, A, B));
  case Op3Sub:
    return write(R, Rd, alu(Sub, A, B));
  case Op3Sll:
    return write(R, Rd, alu(Sll, A, B));
  case Op3Srl:
    return write(R, Rd, alu(Srl, A, B));
  case Op3Sra:
    return write(R, Rd, alu(Sra, A, B));
  case Op3Smul:
    return write(R, Rd, alu(Mul, A, B));
  case Op3Sdiv:
    return write(R, Rd, alu(Div, A, B));
  case Op3Srem:
    return write(R, Rd, alu(Rem, A, B));
  case Op3AddCC:
    return WriteCC(Add);
  case Op3AndCC:
    return WriteCC(And);
  case Op3OrCC:
    return WriteCC(Or);
  case Op3XorCC:
    return WriteCC(Xor);
  case Op3SubCC:
    return WriteCC(Sub);
  case Op3RdCC:
    return write(R, Rd, R[RegIdCC]);
  case Op3WrCC:
    R[RegIdCC] = A & 0xF;
    return {};
  case Op3Jmpl:
    write(R, Rd, PC);
    return transfer(M, PC, A + B);
  case Op3Sys:
    return fieldI(W) ? trap(M, extractBits(W, 0, 12)) : invalid();
  default:
    return invalid();
  }
}

// --- MRISC --------------------------------------------------------------------

StepOutcome stepMrisc(Machine &M, Addr PC, MachWord W) {
  using namespace mrisc;
  using enum DataOpKind;
  using enum MemMode;
  uint32_t *R = M.cpu().Regs;
  unsigned Rs = fieldRs(W), Rt = fieldRt(W), Rd = fieldRd(W);
  uint32_t Imm = static_cast<uint32_t>(fieldSimm16(W)), Uimm = fieldUimm16(W);
  switch (fieldOp(W)) {
  case OpRType: {
    uint32_t Shamt = fieldShamt(W);
    switch (fieldFunct(W)) {
    case FnSll:
      return Rs ? invalid() : write(R, Rd, alu(Sll, R[Rt], Shamt));
    case FnSrl:
      return Rs ? invalid() : write(R, Rd, alu(Srl, R[Rt], Shamt));
    case FnSra:
      return Rs ? invalid() : write(R, Rd, alu(Sra, R[Rt], Shamt));
    case FnSllv:
      return write(R, Rd, alu(Sll, R[Rt], R[Rs]));
    case FnSrlv:
      return write(R, Rd, alu(Srl, R[Rt], R[Rs]));
    case FnSrav:
      return write(R, Rd, alu(Sra, R[Rt], R[Rs]));
    case FnJr:
      return Rt || Rd || Shamt ? invalid() : transfer(M, PC, R[Rs]);
    case FnJalr: {
      if (Rt || Shamt)
        return invalid();
      Addr Target = R[Rs];
      write(R, Rd, PC + 8);
      return transfer(M, PC, Target);
    }
    case FnSyscall:
      return trap(M, R[RegV0]);
    case FnMul:
      return write(R, Rd, alu(Mul, R[Rs], R[Rt]));
    case FnDiv:
      return write(R, Rd, alu(Div, R[Rs], R[Rt]));
    case FnRem:
      return write(R, Rd, alu(Rem, R[Rs], R[Rt]));
    case FnAdd:
      return write(R, Rd, alu(Add, R[Rs], R[Rt]));
    case FnSub:
      return write(R, Rd, alu(Sub, R[Rs], R[Rt]));
    case FnAnd:
      return write(R, Rd, alu(And, R[Rs], R[Rt]));
    case FnOr:
      return write(R, Rd, alu(Or, R[Rs], R[Rt]));
    case FnXor:
      return write(R, Rd, alu(Xor, R[Rs], R[Rt]));
    case FnSlt:
      return write(R, Rd, alu(SetLess, R[Rs], R[Rt]));
    default:
      return invalid();
    }
  }
  case OpJ:
    return transfer(M, PC, (PC & 0xF0000000u) | (fieldIndex26(W) << 2));
  case OpJal:
    R[RegRA] = PC + 8;
    return transfer(M, PC, (PC & 0xF0000000u) | (fieldIndex26(W) << 2));
  case OpBeq:
    return transfer(M, PC, PC + 4 + (Imm << 2), R[Rs] == R[Rt]);
  case OpBne:
    return transfer(M, PC, PC + 4 + (Imm << 2), R[Rs] != R[Rt]);
  case OpBlez:
    return Rt ? invalid()
              : transfer(M, PC, PC + 4 + (Imm << 2),
                         static_cast<int32_t>(R[Rs]) <= 0);
  case OpBgtz:
    return Rt ? invalid()
              : transfer(M, PC, PC + 4 + (Imm << 2),
                         static_cast<int32_t>(R[Rs]) > 0);
  case OpAddi:
    return write(R, Rt, alu(Add, R[Rs], Imm));
  case OpSlti:
    return write(R, Rt, alu(SetLess, R[Rs], Imm));
  case OpAndi:
    return write(R, Rt, alu(And, R[Rs], Uimm));
  case OpOri:
    return write(R, Rt, alu(Or, R[Rs], Uimm));
  case OpXori:
    return write(R, Rt, alu(Xor, R[Rs], Uimm));
  case OpLui:
    return Rs ? invalid() : write(R, Rt, Uimm << 16);
  case OpLb:
    return access(M, PC, R[Rs] + Imm, 1, LoadSigned, Rt);
  case OpLh:
    return access(M, PC, R[Rs] + Imm, 2, LoadSigned, Rt);
  case OpLw:
    return access(M, PC, R[Rs] + Imm, 4, Load, Rt);
  case OpLbu:
    return access(M, PC, R[Rs] + Imm, 1, Load, Rt);
  case OpLhu:
    return access(M, PC, R[Rs] + Imm, 2, Load, Rt);
  case OpSb:
    return access(M, PC, R[Rs] + Imm, 1, Store, Rt);
  case OpSh:
    return access(M, PC, R[Rs] + Imm, 2, Store, Rt);
  case OpSw:
    return access(M, PC, R[Rs] + Imm, 4, Store, Rt);
  default:
    return invalid();
  }
}

// --- ARISC --------------------------------------------------------------------

StepOutcome stepArisc(Machine &M, Addr PC, MachWord W) {
  using namespace arisc;
  using enum DataOpKind;
  using enum MemMode;
  uint32_t *R = M.cpu().Regs;
  unsigned Ra = fieldRa(W), Rb = fieldRb(W), Rc = fieldRc(W);
  uint32_t Imm = static_cast<uint32_t>(fieldSimm16(W)), Uimm = fieldUimm16(W);
  // Every PC-relative transfer counts from the next word.
  Addr Next = PC + 4;
  switch (fieldOp(W)) {
  case OpOperate:
    switch (fieldFunc(W)) {
    case FnAdd:
      return write(R, Rc, alu(Add, R[Ra], R[Rb]));
    case FnSub:
      return write(R, Rc, alu(Sub, R[Ra], R[Rb]));
    case FnAnd:
      return write(R, Rc, alu(And, R[Ra], R[Rb]));
    case FnOr:
      return write(R, Rc, alu(Or, R[Ra], R[Rb]));
    case FnXor:
      return write(R, Rc, alu(Xor, R[Ra], R[Rb]));
    case FnSll:
      return write(R, Rc, alu(Sll, R[Ra], R[Rb]));
    case FnSrl:
      return write(R, Rc, alu(Srl, R[Ra], R[Rb]));
    case FnSra:
      return write(R, Rc, alu(Sra, R[Ra], R[Rb]));
    case FnMul:
      return write(R, Rc, alu(Mul, R[Ra], R[Rb]));
    case FnDiv:
      return write(R, Rc, alu(Div, R[Ra], R[Rb]));
    case FnRem:
      return write(R, Rc, alu(Rem, R[Ra], R[Rb]));
    case FnCmplt:
      return write(R, Rc, alu(SetLess, R[Ra], R[Rb]));
    default:
      return invalid();
    }
  case OpAddi:
    return write(R, Rb, alu(Add, R[Ra], Imm));
  case OpCmplti:
    return write(R, Rb, alu(SetLess, R[Ra], Imm));
  case OpAndi:
    return write(R, Rb, alu(And, R[Ra], Uimm));
  case OpOri:
    return write(R, Rb, alu(Or, R[Ra], Uimm));
  case OpXori:
    return write(R, Rb, alu(Xor, R[Ra], Uimm));
  case OpSlli:
    return write(R, Rb, alu(Sll, R[Ra], Uimm));
  case OpSrli:
    return write(R, Rb, alu(Srl, R[Ra], Uimm));
  case OpSrai:
    return write(R, Rb, alu(Sra, R[Ra], Uimm));
  case OpLdih:
    return Ra ? invalid() : write(R, Rb, Uimm << 16);
  case OpLdw:
    return access(M, PC, R[Rb] + Imm, 4, Load, Ra);
  case OpLdb:
    return access(M, PC, R[Rb] + Imm, 1, LoadSigned, Ra);
  case OpLdbu:
    return access(M, PC, R[Rb] + Imm, 1, Load, Ra);
  case OpLdh:
    return access(M, PC, R[Rb] + Imm, 2, LoadSigned, Ra);
  case OpLdhu:
    return access(M, PC, R[Rb] + Imm, 2, Load, Ra);
  case OpStw:
    return access(M, PC, R[Rb] + Imm, 4, Store, Ra);
  case OpStb:
    return access(M, PC, R[Rb] + Imm, 1, Store, Ra);
  case OpSth:
    return access(M, PC, R[Rb] + Imm, 2, Store, Ra);
  case OpBeq:
    return transfer(M, PC, Next + (Imm << 2), R[Ra] == R[Rb]);
  case OpBne:
    return transfer(M, PC, Next + (Imm << 2), R[Ra] != R[Rb]);
  case OpBlt:
    return transfer(M, PC, Next + (Imm << 2),
                    static_cast<int32_t>(R[Ra]) < static_cast<int32_t>(R[Rb]));
  case OpBle:
    return transfer(M, PC, Next + (Imm << 2),
                    static_cast<int32_t>(R[Ra]) <=
                        static_cast<int32_t>(R[Rb]));
  case OpBr:
    return transfer(M, PC, Next + (static_cast<Addr>(fieldSdisp26(W)) << 2));
  case OpBsr:
    R[RegRA] = Next;
    return transfer(M, PC, Next + (static_cast<Addr>(fieldSdisp26(W)) << 2));
  case OpJmp: {
    if (Uimm)
      return invalid();
    Addr Target = R[Rb];
    write(R, Ra, Next);
    return transfer(M, PC, Target);
  }
  case OpSys:
    return Ra || Rb ? invalid() : trap(M, Uimm);
  default:
    return invalid();
  }
}

} // namespace

RunResult Machine::run(uint64_t MaxSteps) {
  // Each ISA's delay-slot model is the VM's own, not the description's.
  switch (Arch) {
  case TargetArch::Srisc:
    return loop([](Machine &M, Addr PC, MachWord W) { return stepSrisc(M, PC, W); },
                /*DelaySlots=*/true, MaxSteps);
  case TargetArch::Mrisc:
    return loop([](Machine &M, Addr PC, MachWord W) { return stepMrisc(M, PC, W); },
                /*DelaySlots=*/true, MaxSteps);
  case TargetArch::Arisc:
    return loop([](Machine &M, Addr PC, MachWord W) { return stepArisc(M, PC, W); },
                /*DelaySlots=*/false, MaxSteps);
  }
  unreachable("unknown target architecture");
}
