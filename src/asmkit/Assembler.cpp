//===- asmkit/Assembler.cpp - Two-pass assembler --------------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "asmkit/Assembler.h"

#include "asmkit/TargetAsm.h"
#include "support/Error.h"

#include <cassert>
#include <cctype>
#include <map>
#include <set>

using namespace eel;
using namespace eel::asmkit;

namespace {

enum class Section : uint8_t { Text, Data, Bss };

struct PendingFixup {
  Section Sec = Section::Text;
  uint32_t Offset = 0; ///< Byte offset within the section buffer.
  Fixup Fix;
  unsigned Line = 0;
};

struct ExtraSymbol {
  std::string Name;
  Addr Value = 0;
  SymKind Kind = SymKind::Label;
};

/// Assembler state for one translation run.
class Driver {
public:
  Driver(TargetArch Arch, const AsmOptions &Options)
      : Parser(instParserFor(Arch)), Arch(Arch), Options(Options) {}

  Expected<SxfFile> run(const std::string &Source);

private:
  Expected<bool> processLine(std::string Line);
  Expected<bool> processDirective(const std::vector<std::string> &Tokens,
                                  const std::string &Line);
  Expected<bool> defineLabel(const std::string &Name);
  Expected<bool> emitInstruction(const std::vector<std::string> &Tokens);
  Expected<int64_t> parseNumber(const std::string &Token) const;

  void emitByte(uint8_t B) {
    currentBuffer().push_back(B);
  }
  void emitWordLE(uint32_t W) {
    for (unsigned I = 0; I < 4; ++I)
      emitByte(static_cast<uint8_t>(W >> (8 * I)));
  }

  std::vector<uint8_t> &currentBuffer() {
    assert(Current != Section::Bss && "bss has no file contents");
    return Current == Section::Text ? Text : Data;
  }
  uint32_t currentOffset() const {
    switch (Current) {
    case Section::Text:
      return static_cast<uint32_t>(Text.size());
    case Section::Data:
      return static_cast<uint32_t>(Data.size());
    case Section::Bss:
      return BssSize;
    }
    return 0;
  }

  Error lineError(const std::string &Message) const {
    return Error("line " + std::to_string(LineNo) + ": " + Message);
  }

  Addr sectionBase(Section Sec) const {
    switch (Sec) {
    case Section::Text:
      return Options.TextBase;
    case Section::Data:
      return Options.DataBase;
    case Section::Bss:
      return BssBase;
    }
    return 0;
  }

  const InstParser &Parser;
  TargetArch Arch;
  AsmOptions Options;

  Section Current = Section::Text;
  std::vector<uint8_t> Text;
  std::vector<uint8_t> Data;
  uint32_t BssSize = 0;
  Addr BssBase = 0;

  // Label name -> (section, offset).
  std::map<std::string, std::pair<Section, uint32_t>> Labels;
  std::vector<std::string> LabelOrder;
  std::set<std::string> Globals;
  std::vector<PendingFixup> Fixups;
  std::vector<SxfReloc> EmittedRelocs;
  std::vector<std::pair<ExtraSymbol, Section>> Extras;
  std::string EntryName;
  bool NextLabelHidden = false;
  std::set<std::string> HiddenLabels;
  unsigned LineNo = 0;
};

} // namespace

/// Splits an instruction/operand line into tokens. Identifiers keep their
/// leading sigils (%, $, .) so register and symbol spellings survive intact;
/// punctuation characters become single-character tokens.
static std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  size_t I = 0;
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.' || C == '$' || C == '%';
  };
  while (I < Line.size()) {
    char C = Line[I];
    if (C == ' ' || C == '\t') {
      ++I;
      continue;
    }
    if (IsIdent(C)) {
      size_t Start = I;
      while (I < Line.size() && IsIdent(Line[I]))
        ++I;
      Tokens.push_back(Line.substr(Start, I - Start));
      continue;
    }
    // 0x-prefixed numbers are matched by the identifier rule above; other
    // digits too. Everything else is punctuation.
    Tokens.push_back(std::string(1, C));
    ++I;
  }
  return Tokens;
}

Expected<int64_t> Driver::parseNumber(const std::string &Token) const {
  Expected<int64_t> N = asmkit::parseNumber(Token);
  if (N.hasError())
    return lineError(N.error().message());
  return N;
}

Expected<bool> Driver::defineLabel(const std::string &Name) {
  if (Labels.count(Name))
    return lineError("label '" + Name + "' is already defined");
  Labels[Name] = {Current, currentOffset()};
  LabelOrder.push_back(Name);
  if (NextLabelHidden) {
    HiddenLabels.insert(Name);
    NextLabelHidden = false;
  }
  return true;
}

Expected<bool>
Driver::processDirective(const std::vector<std::string> &Tokens,
                         const std::string &Line) {
  const std::string &D = Tokens[0];
  if (D == ".text") {
    Current = Section::Text;
    return true;
  }
  if (D == ".data") {
    Current = Section::Data;
    return true;
  }
  if (D == ".bss") {
    Current = Section::Bss;
    return true;
  }
  if (D == ".global") {
    if (Tokens.size() < 2)
      return lineError(".global needs a name");
    Globals.insert(Tokens[1]);
    return true;
  }
  if (D == ".hidden") {
    NextLabelHidden = true;
    return true;
  }
  if (D == ".entry") {
    if (Tokens.size() < 2)
      return lineError(".entry needs a name");
    EntryName = Tokens[1];
    return true;
  }
  if (D == ".word" || D == ".half" || D == ".byte") {
    if (Current == Section::Bss)
      return lineError("initialized data in .bss");
    unsigned Width = D == ".word" ? 4 : D == ".half" ? 2 : 1;
    // Operands: expr (, expr)* with expr = NUM | SYM | SYM + NUM.
    size_t I = 1;
    while (I < Tokens.size()) {
      int64_t Value = 0;
      bool IsSym = !Tokens[I].empty() &&
                   !std::isdigit(static_cast<unsigned char>(Tokens[I][0])) &&
                   Tokens[I] != "-";
      if (IsSym) {
        std::string Sym = Tokens[I++];
        int64_t Addend = 0;
        if (I + 1 < Tokens.size() && (Tokens[I] == "+" || Tokens[I] == "-")) {
          bool Neg = Tokens[I] == "-";
          Expected<int64_t> N = parseNumber(Tokens[I + 1]);
          if (N.hasError())
            return N.error();
          Addend = Neg ? -N.value() : N.value();
          I += 2;
        }
        if (Width != 4)
          return lineError("symbol reference requires .word");
        PendingFixup PF;
        PF.Sec = Current;
        PF.Offset = currentOffset();
        PF.Fix.Kind = FixupKind::DataWord;
        PF.Fix.Symbol = Sym;
        PF.Fix.Addend = Addend;
        PF.Line = LineNo;
        Fixups.push_back(PF);
        emitWordLE(0);
      } else {
        bool Neg = false;
        if (Tokens[I] == "-") {
          Neg = true;
          ++I;
          if (I >= Tokens.size())
            return lineError("dangling '-'");
        }
        Expected<int64_t> N = parseNumber(Tokens[I++]);
        if (N.hasError())
          return N.error();
        Value = Neg ? -N.value() : N.value();
        for (unsigned B = 0; B < Width; ++B)
          emitByte(static_cast<uint8_t>(static_cast<uint64_t>(Value) >>
                                        (8 * B)));
      }
      if (I < Tokens.size()) {
        if (Tokens[I] != ",")
          return lineError("expected ',' in data list");
        ++I;
      }
    }
    return true;
  }
  if (D == ".asciz" || D == ".ascii") {
    if (Current == Section::Bss)
      return lineError("initialized data in .bss");
    size_t Quote = Line.find('"');
    size_t End = Line.rfind('"');
    if (Quote == std::string::npos || End <= Quote)
      return lineError(D + " needs a quoted string");
    for (size_t I = Quote + 1; I < End; ++I) {
      char C = Line[I];
      if (C == '\\' && I + 1 < End) {
        ++I;
        switch (Line[I]) {
        case 'n':
          C = '\n';
          break;
        case 't':
          C = '\t';
          break;
        case '0':
          C = '\0';
          break;
        case '\\':
          C = '\\';
          break;
        case '"':
          C = '"';
          break;
        default:
          return lineError("unknown escape in string");
        }
      }
      emitByte(static_cast<uint8_t>(C));
    }
    if (D == ".asciz")
      emitByte(0);
    return true;
  }
  if (D == ".space") {
    if (Tokens.size() < 2)
      return lineError(".space needs a size");
    Expected<int64_t> N = parseNumber(Tokens[1]);
    if (N.hasError())
      return N.error();
    if (Current == Section::Bss)
      BssSize += static_cast<uint32_t>(N.value());
    else
      for (int64_t I = 0; I < N.value(); ++I)
        emitByte(0);
    return true;
  }
  if (D == ".align") {
    if (Tokens.size() < 2)
      return lineError(".align needs a boundary");
    Expected<int64_t> N = parseNumber(Tokens[1]);
    if (N.hasError())
      return N.error();
    uint32_t Boundary = static_cast<uint32_t>(N.value());
    if (Boundary == 0 || (Boundary & (Boundary - 1)))
      return lineError(".align boundary must be a power of two");
    if (Current == Section::Bss) {
      while (BssSize % Boundary)
        ++BssSize;
    } else {
      while (currentOffset() % Boundary)
        emitByte(0);
    }
    return true;
  }
  if (D == ".label" || D == ".debuglabel" || D == ".templabel") {
    if (Tokens.size() < 2)
      return lineError(D + " needs a name");
    ExtraSymbol Sym;
    Sym.Name = Tokens[1];
    Sym.Value = currentOffset();
    Sym.Kind = D == ".label"        ? SymKind::Label
               : D == ".debuglabel" ? SymKind::Debug
                                    : SymKind::Temp;
    Extras.push_back({Sym, Current});
    return true;
  }
  return lineError("unknown directive '" + D + "'");
}

Expected<bool> Driver::emitInstruction(const std::vector<std::string> &Tokens) {
  if (Current != Section::Text)
    return lineError("instructions must be in .text");
  if (currentOffset() % 4 != 0)
    return lineError("instruction at unaligned offset (missing .align 4?)");
  std::vector<AsmInst> Insts;
  Expected<bool> Result = Parser.parse(Tokens, Insts);
  if (Result.hasError())
    return lineError(Result.error().message());
  for (const AsmInst &Inst : Insts) {
    if (Inst.Fix.Kind != FixupKind::None) {
      PendingFixup PF;
      PF.Sec = Section::Text;
      PF.Offset = currentOffset();
      PF.Fix = Inst.Fix;
      PF.Line = LineNo;
      Fixups.push_back(PF);
    }
    emitWordLE(Inst.Word);
  }
  return true;
}

Expected<bool> Driver::processLine(std::string Line) {
  // Strip comments, respecting string literals.
  bool InString = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (C == '"' && (I == 0 || Line[I - 1] != '\\'))
      InString = !InString;
    else if ((C == '!' || C == '#') && !InString) {
      Line.resize(I);
      break;
    }
  }

  // Peel leading labels of the form "name:".
  for (;;) {
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos)
      return true;
    size_t Colon = Line.find(':', First);
    if (Colon == std::string::npos)
      break;
    // Only treat it as a label if everything before ':' is one identifier.
    std::string Head = Line.substr(First, Colon - First);
    bool IsLabel = !Head.empty();
    for (char C : Head)
      if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
          C != '.' && C != '$')
        IsLabel = false;
    if (!IsLabel)
      break;
    Expected<bool> R = defineLabel(Head);
    if (R.hasError())
      return R;
    Line = Line.substr(Colon + 1);
  }

  std::vector<std::string> Tokens = tokenize(Line);
  if (Tokens.empty())
    return true;
  if (Tokens[0][0] == '.' && Tokens[0] != "." && Tokens[0].size() > 1 &&
      !std::isdigit(static_cast<unsigned char>(Tokens[0][1])))
    return processDirective(Tokens, Line);
  return emitInstruction(Tokens);
}

Expected<SxfFile> Driver::run(const std::string &Source) {
  size_t Pos = 0;
  LineNo = 0;
  while (Pos <= Source.size()) {
    size_t End = Source.find('\n', Pos);
    if (End == std::string::npos)
      End = Source.size();
    ++LineNo;
    Expected<bool> R = processLine(Source.substr(Pos, End - Pos));
    if (R.hasError())
      return R.error();
    Pos = End + 1;
  }

  // Place bss after data, 16-byte aligned.
  BssBase = Options.DataBase + static_cast<Addr>((Data.size() + 15) & ~15u);

  auto Resolve = [&](const std::string &Sym,
                     int64_t Addend) -> Expected<int64_t> {
    if (Sym.empty())
      return Addend;
    auto It = Labels.find(Sym);
    if (It == Labels.end())
      return Error("undefined symbol '" + Sym + "'");
    return static_cast<int64_t>(sectionBase(It->second.first)) +
           It->second.second + Addend;
  };

  const TargetInfo &Target = Parser.target();
  for (const PendingFixup &PF : Fixups) {
    Expected<int64_t> TargetValue = Resolve(PF.Fix.Symbol, PF.Fix.Addend);
    if (TargetValue.hasError())
      return Error("line " + std::to_string(PF.Line) + ": " +
                   TargetValue.error().message());
    uint32_t Value = static_cast<uint32_t>(TargetValue.value());
    if (!PF.Fix.Symbol.empty()) {
      SxfReloc Reloc;
      Reloc.Site = sectionBase(PF.Sec) + PF.Offset;
      Reloc.Target = Value;
      switch (PF.Fix.Kind) {
      case FixupKind::PcRelative:
        Reloc.Kind = RelocKind::PcRel;
        break;
      case FixupKind::ImmHi:
        Reloc.Kind = RelocKind::Hi;
        break;
      case FixupKind::ImmLo:
        Reloc.Kind = RelocKind::Lo;
        break;
      default:
        Reloc.Kind = RelocKind::Word32;
        break;
      }
      EmittedRelocs.push_back(Reloc);
    }
    std::vector<uint8_t> &Buf = PF.Sec == Section::Text ? Text : Data;
    uint32_t Old = static_cast<uint32_t>(Buf[PF.Offset]) |
                   (static_cast<uint32_t>(Buf[PF.Offset + 1]) << 8) |
                   (static_cast<uint32_t>(Buf[PF.Offset + 2]) << 16) |
                   (static_cast<uint32_t>(Buf[PF.Offset + 3]) << 24);
    uint32_t New = Old;
    switch (PF.Fix.Kind) {
    case FixupKind::None:
      break;
    case FixupKind::PcRelative: {
      Addr PC = sectionBase(PF.Sec) + PF.Offset;
      std::optional<MachWord> Retargeted =
          retargetDirect(Target.decode(Old), Old, PC, Value);
      if (!Retargeted)
        return Error("line " + std::to_string(PF.Line) +
                     ": branch target out of range");
      New = *Retargeted;
      break;
    }
    case FixupKind::ImmHi:
      New = Parser.applyImmHi(Old, Value);
      break;
    case FixupKind::ImmLo:
      New = Parser.applyImmLo(Old, Value);
      break;
    case FixupKind::DataWord:
      New = Value;
      break;
    }
    for (unsigned I = 0; I < 4; ++I)
      Buf[PF.Offset + I] = static_cast<uint8_t>(New >> (8 * I));
  }

  SxfFile File;
  File.Arch = Arch;
  File.Relocs = std::move(EmittedRelocs);

  SxfSegment TextSeg;
  TextSeg.Kind = SegKind::Text;
  TextSeg.VAddr = Options.TextBase;
  TextSeg.Bytes = std::move(Text);
  TextSeg.MemSize = static_cast<uint32_t>(TextSeg.Bytes.size());
  File.Segments.push_back(std::move(TextSeg));

  SxfSegment DataSeg;
  DataSeg.Kind = SegKind::Data;
  DataSeg.VAddr = Options.DataBase;
  DataSeg.Bytes = std::move(Data);
  DataSeg.MemSize = static_cast<uint32_t>(DataSeg.Bytes.size());
  File.Segments.push_back(std::move(DataSeg));

  if (BssSize > 0) {
    SxfSegment BssSeg;
    BssSeg.Kind = SegKind::Bss;
    BssSeg.VAddr = BssBase;
    BssSeg.MemSize = BssSize;
    File.Segments.push_back(std::move(BssSeg));
  }

  // Emit symbols in definition order.
  for (const std::string &Name : LabelOrder) {
    if (Name.compare(0, 2, ".L") == 0)
      continue; // assembler-local
    if (HiddenLabels.count(Name))
      continue; // deliberately omitted (hidden routine)
    const auto &[Sec, Off] = Labels[Name];
    SxfSymbol Sym;
    Sym.Name = Name;
    Sym.Value = sectionBase(Sec) + Off;
    Sym.Kind = Sec == Section::Text ? SymKind::Routine : SymKind::Object;
    Sym.Binding =
        Globals.count(Name) ? SymBinding::Global : SymBinding::Local;
    File.Symbols.push_back(std::move(Sym));
  }
  for (const auto &[Extra, Sec] : Extras) {
    SxfSymbol Sym;
    Sym.Name = Extra.Name;
    Sym.Value = sectionBase(Sec) + Extra.Value;
    Sym.Kind = Extra.Kind;
    Sym.Binding = SymBinding::Local;
    File.Symbols.push_back(std::move(Sym));
  }

  if (!EntryName.empty()) {
    Expected<int64_t> E = Resolve(EntryName, 0);
    if (E.hasError())
      return Error(".entry: " + E.error().message());
    File.Entry = static_cast<Addr>(E.value());
  } else if (Labels.count("main")) {
    File.Entry = sectionBase(Labels["main"].first) + Labels["main"].second;
  } else {
    File.Entry = Options.TextBase;
  }
  return File;
}

Expected<SxfFile> eel::assembleProgram(TargetArch Arch,
                                       const std::string &Source,
                                       const AsmOptions &Options) {
  Driver D(Arch, Options);
  return D.run(Source);
}

SxfFile eel::assembleOrDie(TargetArch Arch, const std::string &Source,
                           const AsmOptions &Options) {
  return assembleProgram(Arch, Source, Options).takeValue();
}

// --- Operand syntax shared by the targets -------------------------------------

Expected<int64_t> asmkit::parseNumber(const std::string &Token) {
  size_t Pos = Token.size() > 1 && Token[0] == '-' ? 1 : 0;
  bool Hex = Token.compare(Pos, 2, "0x") == 0 || Token.compare(Pos, 2, "0X") == 0;
  size_t First = Pos + (Hex ? 2 : 0);
  if (First >= Token.size() ||
      !std::isdigit(static_cast<unsigned char>(Token[Pos])))
    return Error("expected a number, found '" + Token + "'");
  int64_t Value = 0;
  for (size_t I = First; I < Token.size(); ++I) {
    char C = static_cast<char>(
        std::tolower(static_cast<unsigned char>(Token[I])));
    int Digit = C >= '0' && C <= '9'           ? C - '0'
                : Hex && C >= 'a' && C <= 'f' ? C - 'a' + 10
                                              : -1;
    if (Digit < 0)
      return Error("bad digit in '" + Token + "'");
    if (__builtin_mul_overflow(Value, Hex ? 16 : 10, &Value) ||
        __builtin_add_overflow(Value, Digit, &Value))
      return Error("number out of range: '" + Token + "'");
  }
  return Pos ? -Value : Value;
}

Expected<unsigned>
asmkit::parseReg(const std::string &T,
                 const std::map<std::string, unsigned> &Names) {
  if (auto It = Names.find(T); It != Names.end())
    return It->second;
  if (T.size() < 2 || T[0] != '$' ||
      !std::isdigit(static_cast<unsigned char>(T[1])))
    return Error("expected a register, found '" + T + "'");
  if (T.find_first_not_of("0123456789", 1) != std::string::npos)
    return Error("bad register '" + T + "'");
  Expected<int64_t> N = parseNumber(T.substr(1));
  if (N.hasError() || N.value() >= 32)
    return Error("register number out of range in '" + T + "'");
  return static_cast<unsigned>(N.value());
}

Expected<ImmOperand> asmkit::parseImmOperand(Cursor &C) {
  ImmOperand Op;
  if (C.peek() == "%hi" || C.peek() == "%lo") {
    bool IsHi = C.next() == "%hi";
    Op.Fix.Kind = IsHi ? FixupKind::ImmHi : FixupKind::ImmLo;
    if (!C.eat("("))
      return Error("expected '(' after %hi/%lo");
    std::string Sym = C.next();
    if (Sym.empty())
      return Error("expected a symbol in %hi/%lo");
    Op.Fix.Symbol = Sym;
    if (C.peek() == "+" || C.peek() == "-") {
      bool Neg = C.next() == "-";
      Expected<int64_t> N = parseNumber(C.next());
      if (N.hasError())
        return N.error();
      Op.Fix.Addend = Neg ? -N.value() : N.value();
    }
    if (!C.eat(")"))
      return Error("expected ')' after %hi/%lo");
    return Op;
  }
  bool Neg = C.eat("-");
  Expected<int64_t> N = parseNumber(C.next());
  if (N.hasError())
    return N.error();
  Op.Value = Neg ? -N.value() : N.value();
  return Op;
}
