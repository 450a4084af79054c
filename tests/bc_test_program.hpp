#pragma once
// Hand-written test programs. A test program is what every PE program is:
// an image (wse/program.hpp) holding routes, allocations, uploads and a
// bytecode stream (wse/bytecode.hpp). `body` writes both — the layout
// through the image builder, and the stream, whose first instruction is
// the entry block; task handlers are blocks bound with SETH.

#include <functional>
#include <memory>
#include <utility>

#include "wse/bytecode.hpp"
#include "wse/program.hpp"

namespace fvdf::test_util {

using ProgramBody =
    std::function<void(wse::ImageBuilder&, wse::bc::Builder&)>;

inline std::unique_ptr<wse::PeProgram> bc_program(ProgramBody body) {
  return std::make_unique<wse::PeProgram>(
      [body = std::move(body)](wse::ImageBuilder& ctx) {
        wse::bc::Builder b("test");
        body(ctx, b);
        return std::make_shared<const wse::bc::Program>(b.finish());
      });
}

} // namespace fvdf::test_util
