#pragma once
// Reference operation programs: the hold/write/read waveform programs of
// the cell driver (sram/operations.cpp) and of the flat array driver
// (array/array.cpp) as each engine wrote them out by hand, before both
// built their sources from sram::OperationProgram. The bodies are kept
// as they were; only their sources record into a map instead of driving
// circuit elements, and each engine's excursion() helper is renamed so
// that src/sram/operations.cpp keeps the only definition of that name.
// tests/test_operation_program.cpp holds the programs the drivers now
// apply to bitwise agreement with these.

#include <map>
#include <string>

#include "array/array.hpp"
#include "spice/waveform.hpp"
#include "sram/operations.hpp"

namespace testing_support {

/// Waveforms by source. Cell programs key on the rail role ("vdd", "vss",
/// "wl", "bl", "blb", "rwl", "rbl", "sw_bl", "sw_blb", "sw_rbl"); array
/// programs key on the source's label ("Vvdd", "Vwl0", "SWbl1", ...).
/// A role whose handle the cell lacks is absent.
using ProgramMap = std::map<std::string, tfetsram::spice::Waveform>;

ProgramMap reference_hold(const tfetsram::sram::SramCell& cell);

ProgramMap reference_write(const tfetsram::sram::SramCell& cell, bool value,
                           double pulse_width, tfetsram::sram::Assist assist,
                           double fraction,
                           const tfetsram::sram::OperationTiming& timing,
                           tfetsram::sram::OperationWindow* window);

ProgramMap reference_read(const tfetsram::sram::SramCell& cell,
                          double read_duration, tfetsram::sram::Assist assist,
                          double fraction,
                          const tfetsram::sram::OperationTiming& timing,
                          bool float_bitlines,
                          tfetsram::sram::ReadSetup* setup);

/// Every source of an array built from `config` (the constructor's
/// levels, then the operation's), after write(row, col, value).
ProgramMap reference_array_write(const tfetsram::array::ArrayConfig& config,
                                 std::size_t row, std::size_t col,
                                 bool value);

/// Every source of an array built from `config` after read(row, col).
ProgramMap reference_array_read(const tfetsram::array::ArrayConfig& config,
                                std::size_t row, std::size_t col);

} // namespace testing_support
