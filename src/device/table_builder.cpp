#include "device/table_builder.hpp"

#include <cmath>
#include <vector>

namespace tfetsram::device {

std::shared_ptr<const DeviceTable> build_table(
    const spice::TransistorModel& source, const TableSpec& spec) {
    auto table = std::make_shared<DeviceTable>(
        std::string(source.name()) + "[tab]", spec);
    Grid2d& tg = table->t_grid();
    Grid2d& cgs = table->cgs_grid();
    Grid2d& cgd = table->cgd_grid();
    std::vector<double> vgs(tg.nx());
    std::vector<double> vds(tg.ny());
    for (std::size_t ix = 0; ix < vgs.size(); ++ix)
        vgs[ix] = tg.x_at(ix);
    for (std::size_t iy = 0; iy < vds.size(); ++iy)
        vds[iy] = tg.y_at(iy);
    // One grid sweep: separable models evaluate each per-axis term once.
    source.sample_grid(
        vgs, vds,
        [&](std::size_t iy, std::span<spice::IvSample> iv,
            std::span<spice::CvSample> cv) {
            const DeviceTable::OutputShape out = table->output_shape(vds[iy]);
            for (std::size_t ix = 0; ix < iv.size(); ++ix) {
                double ratio = 0.0;
                if (std::fabs(out.f) > 1e-9) {
                    ratio = iv[ix].ids / out.f;
                } else {
                    // At (and numerically near) vds = 0 the current and the
                    // output shape both vanish; the ratio limit is the
                    // channel conductance divided by F'(0) = 1/v_out.
                    ratio = iv[ix].gds / out.df;
                }
                tg.at(ix, iy) = table->compress_ratio(ratio);
                cgs.at(ix, iy) = cv[ix].cgs;
                cgd.at(ix, iy) = cv[ix].cgd;
            }
        });
    return table;
}

} // namespace tfetsram::device
