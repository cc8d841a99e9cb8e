//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

using namespace elfie;
using namespace elfie::json;

void json::appendString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", static_cast<unsigned>(C));
      else
        Out += C;
    }
  }
  Out += '"';
}

void Writer::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (HasValue.empty())
    return;
  if (HasValue.back())
    Out += ',';
  HasValue.back() = true;
}

Writer &Writer::open(char C) {
  separate();
  Out += C;
  HasValue.push_back(false);
  return *this;
}

Writer &Writer::close(char C) {
  HasValue.pop_back();
  Out += C;
  return *this;
}

Writer &Writer::key(std::string_view K) {
  string(K);
  Out += ':';
  AfterKey = true;
  return *this;
}

Writer &Writer::string(std::string_view V) {
  separate();
  appendString(Out, V);
  return *this;
}

Writer &Writer::number(std::string_view Token) {
  separate();
  Out += Token;
  return *this;
}
