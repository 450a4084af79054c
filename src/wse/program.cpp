#include "wse/program.hpp"

#include "common/error.hpp"
#include "wse/bytecode_interp.hpp"

namespace fvdf::wse {

PeProgram::PeProgram(Start start) : start_(std::move(start)) {}

PeProgram::PeProgram(std::shared_ptr<const bc::Program> program, Setup setup)
    : start_([program = std::move(program),
              setup = std::move(setup)](PeContext& ctx) {
        if (setup) setup(ctx);
        return program;
      }),
      run_entry_(false) {}

std::shared_ptr<const bc::Program> PeProgram::start(PeContext& ctx) {
  return start_(ctx);
}

void PeProgram::on_start(PeContext& ctx) {
  program_ = start(ctx);
  FVDF_CHECK_MSG(program_ != nullptr, "PE program start step returned no stream");
  if (run_entry_) bc::run(ctx, vm_, *program_, program_->entry);
}

} // namespace fvdf::wse
