//===- sched/Journal.cpp --------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sched/Journal.h"

#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <cstring>

using namespace elfie;
using namespace elfie::sched;

/// Journal values are flat strings; the ones that spell an integer are
/// written (and accepted back) as bare JSON numbers.
static bool looksNumeric(const std::string &V) {
  if (V.empty())
    return false;
  size_t I = V[0] == '-' ? 1 : 0;
  if (I == V.size())
    return false;
  for (; I < V.size(); ++I)
    if (!std::isdigit(static_cast<unsigned char>(V[I])))
      return false;
  return true;
}

static void writeValue(json::Writer &W, const std::string &V) {
  if (looksNumeric(V))
    W.number(V);
  else
    W.string(V);
}

std::string elfie::sched::renderJournalRecord(const JournalRecord &Rec) {
  // "rec" leads for scannability; the rest in map (sorted) order.
  json::Writer W;
  W.beginObject();
  auto RecIt = Rec.find("rec");
  if (RecIt != Rec.end())
    writeValue(W.key("rec"), RecIt->second);
  for (const auto &[K, V] : Rec)
    if (K != "rec")
      writeValue(W.key(K), V);
  W.endObject();
  return W.str();
}

namespace {

/// Minimal parser for the flat-object subset the journal writes: one
/// {"key":value,...} per line, values being strings, integers, or bools.
/// Anything else (nesting, torn tails) fails the line as a whole.
class FlatJSONParser {
public:
  explicit FlatJSONParser(const std::string &Text) : S(Text) {}

  bool parse(JournalRecord &Out) {
    skipWS();
    if (!eat('{'))
      return false;
    skipWS();
    if (eat('}'))
      return trailingOK();
    for (;;) {
      std::string Key, Value;
      if (!parseString(Key))
        return false;
      skipWS();
      if (!eat(':'))
        return false;
      skipWS();
      if (!parseValue(Value))
        return false;
      Out[Key] = Value;
      skipWS();
      if (eat(',')) {
        skipWS();
        continue;
      }
      if (eat('}'))
        return trailingOK();
      return false;
    }
  }

private:
  void skipWS() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t'))
      ++Pos;
  }
  bool eat(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool trailingOK() {
    skipWS();
    return Pos == S.size();
  }
  bool parseString(std::string &Out) {
    if (!eat('"'))
      return false;
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= S.size())
          return false;
        char E = S[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'u': {
          if (Pos + 4 > S.size())
            return false;
          uint64_t Code = 0;
          if (!parseUInt64("0x" + S.substr(Pos, 4), Code))
            return false;
          Pos += 4;
          // The writer only escapes control bytes this way.
          Out += static_cast<char>(Code & 0xff);
          break;
        }
        default:
          return false;
        }
        continue;
      }
      Out += C;
    }
    return false;
  }
  bool parseValue(std::string &Out) {
    if (Pos < S.size() && S[Pos] == '"')
      return parseString(Out);
    size_t Start = Pos;
    while (Pos < S.size() && S[Pos] != ',' && S[Pos] != '}' &&
           S[Pos] != ' ' && S[Pos] != '\t')
      ++Pos;
    Out = S.substr(Start, Pos - Start);
    if (Out == "true" || Out == "false")
      return true;
    return looksNumeric(Out);
  }

  const std::string &S;
  size_t Pos = 0;
};

} // namespace

/// Case-insensitive substring search (strerror spellings vary in case
/// across libcs; the injected-fault messages are lower-case).
static bool containsNoCase(const std::string &Hay, const char *Needle) {
  size_t N = std::strlen(Needle);
  if (N == 0 || Hay.size() < N)
    return false;
  for (size_t I = 0; I + N <= Hay.size(); ++I) {
    size_t J = 0;
    while (J < N && std::tolower(static_cast<unsigned char>(Hay[I + J])) ==
                        std::tolower(static_cast<unsigned char>(Needle[J])))
      ++J;
    if (J == N)
      return true;
  }
  return false;
}

Error JournalWriter::append(const JournalRecord &Rec) {
  Error E = Log.append(renderJournalRecord(Rec));
  if (!E)
    return E;
  // Keep disk pressure structured. AppendLog already classifies kernel
  // errnos; injected faults (IOFaultHook) arrive as generic write/read
  // failures whose message names the condition — re-code them so both
  // paths surface identically.
  std::string Code = E.code();
  if (Code != "EFAULT.IO.ENOSPC" && Code != "EFAULT.IO.EIO") {
    if (containsNoCase(E.message(), "no space left on device"))
      Code = "EFAULT.IO.ENOSPC";
    else if (containsNoCase(E.message(), "input/output error") ||
             containsNoCase(E.message(), "i/o error"))
      Code = "EFAULT.IO.EIO";
  }
  return Error::failure(Code, E.message())
      .withContext("journal '" + Log.path() + "'");
}

bool elfie::sched::isDiskPressureError(const Error &E) {
  return E.isError() &&
         (E.code() == "EFAULT.IO.ENOSPC" || E.code() == "EFAULT.IO.EIO");
}

bool elfie::sched::parseJournalRecord(const std::string &Line,
                                      JournalRecord &Out) {
  JournalRecord Tmp;
  std::string Trimmed = trimString(Line);
  FlatJSONParser P(Trimmed);
  if (!P.parse(Tmp) || !Tmp.count("rec"))
    return false;
  Out = std::move(Tmp);
  return true;
}

Expected<JournalState> elfie::sched::scanJournal(const std::string &Path) {
  auto Text = readFileText(Path);
  if (!Text)
    return Text.takeError().withContext("scanning journal");
  JournalState St;
  for (const std::string &RawLine : splitString(*Text, '\n')) {
    std::string Line = trimString(RawLine);
    if (Line.empty())
      continue;
    JournalRecord Rec;
    if (!parseJournalRecord(Line, Rec)) {
      // Torn or corrupted line (kill mid-append, injected flip): the
      // record is simply not there; the work it described re-runs.
      ++St.TornLines;
      continue;
    }
    ++St.Records;
    const std::string &Kind = Rec["rec"];
    const std::string &JobId = Rec["job"];
    if (Kind == "plan") {
      parseUInt64(Rec["jobs"], St.PlanJobs);
    } else if (Kind == "start") {
      St.InFlight.insert(JobId);
      uint64_t A = 0;
      if (parseUInt64(Rec["attempt"], A))
        St.Attempts[JobId] =
            std::max(St.Attempts[JobId], static_cast<uint32_t>(A));
    } else if (Kind == "done") {
      St.Done.insert(JobId);
      St.InFlight.erase(JobId);
    } else if (Kind == "quarantine") {
      St.Quarantined.insert(JobId);
      St.InFlight.erase(JobId);
    } else if (Kind == "seal") {
      St.Sealed = true;
      St.SealReason = Rec["reason"];
    }
    // "exit" and "resume" records carry history, not state.
  }
  return St;
}
