#include "program.hh"

namespace wg {

Program::Program(std::vector<Instruction> instrs)
{
    auto body = std::make_shared<Body>();
    body->instrs = std::move(instrs);
    for (const auto& i : body->instrs)
        ++body->classCounts[static_cast<std::size_t>(i.unit)];
    body_ = std::move(body);
}

std::size_t
Program::countOf(UnitClass uc) const
{
    return body_ ? body_->classCounts[static_cast<std::size_t>(uc)] : 0;
}

const std::vector<Instruction>&
Program::instructions() const
{
    static const std::vector<Instruction> kEmpty;
    return body_ ? body_->instrs : kEmpty;
}

} // namespace wg
