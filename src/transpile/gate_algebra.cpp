#include "transpile/gate_algebra.hpp"

#include <cmath>

namespace quclear {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** theta folded into [0, 2*pi). */
double
normalizedAngle(double theta)
{
    double m = std::fmod(theta, 2 * kPi);
    if (m < 0)
        m += 2 * kPi;
    return m;
}

} // namespace

GateAxis
gateAxis(GateType t)
{
    switch (t) {
      case GateType::X:
      case GateType::SX:
      case GateType::SXdg:
      case GateType::Rx:
        return GateAxis::X;
      case GateType::Y:
      case GateType::Ry:
        return GateAxis::Y;
      case GateType::Z:
      case GateType::S:
      case GateType::Sdg:
      case GateType::Rz:
        return GateAxis::Z;
      default:
        return GateAxis::Other;
    }
}

GateAxis
operandAxis(GateType t, bool on_q1)
{
    switch (t) {
      case GateType::CX:
        return on_q1 ? GateAxis::X : GateAxis::Z;
      case GateType::CZ:
        return GateAxis::Z;
      default:
        return gateAxis(t);
    }
}

std::optional<double>
axisAngle(const Gate &g)
{
    switch (g.type) {
      case GateType::S:
      case GateType::SX:
        return kPi / 2;
      case GateType::Sdg:
      case GateType::SXdg:
        return -kPi / 2;
      case GateType::X:
      case GateType::Y:
      case GateType::Z:
        return kPi;
      case GateType::Rz:
      case GateType::Rx:
      case GateType::Ry:
        return g.angle;
      default:
        return std::nullopt;
    }
}

bool
angleIsTrivial(double theta)
{
    const double m = std::fmod(std::fabs(theta), 2 * kPi);
    return m < 1e-12 || (2 * kPi - m) < 1e-12;
}

Gate
axisRotationGate(GateAxis axis, uint32_t qubit, double theta)
{
    const double m = normalizedAngle(theta);
    auto near = [&](double x) { return std::fabs(m - x) < 1e-12; };
    switch (axis) {
      case GateAxis::Z:
        if (near(kPi / 2))
            return Gate(GateType::S, qubit);
        if (near(kPi))
            return Gate(GateType::Z, qubit);
        if (near(3 * kPi / 2))
            return Gate(GateType::Sdg, qubit);
        return Gate(GateType::Rz, qubit, theta);
      case GateAxis::X:
        if (near(kPi / 2))
            return Gate(GateType::SX, qubit);
        if (near(kPi))
            return Gate(GateType::X, qubit);
        if (near(3 * kPi / 2))
            return Gate(GateType::SXdg, qubit);
        return Gate(GateType::Rx, qubit, theta);
      default:
        if (near(kPi))
            return Gate(GateType::Y, qubit);
        return Gate(GateType::Ry, qubit, theta);
    }
}

CombinedGate
combineSingleQubit(const Gate &first, const Gate &second)
{
    CombinedGate c;
    if (first.q0 != second.q0 || isTwoQubit(first.type) ||
        isTwoQubit(second.type))
        return c;

    // H H is the only inverse pair outside the axis algebra below.
    if (first.type == GateType::H && second.type == GateType::H) {
        c.combined = true;
        c.identity = true;
        return c;
    }

    const GateAxis axis = gateAxis(first.type);
    if (axis == GateAxis::Other || gateAxis(second.type) != axis)
        return c;
    const auto ta = axisAngle(first);
    const auto tb = axisAngle(second);
    const double theta = *ta + *tb;
    c.combined = true;
    if (angleIsTrivial(theta)) {
        c.identity = true;
        return c;
    }
    c.merged = axisRotationGate(axis, first.q0, theta);
    return c;
}

} // namespace quclear
