#pragma once

#include <string>

#include "vmpi/process.hpp"

namespace exasim::apps {

/// Builds a built-in application from its name and its `--app-params` text,
/// "key=value,..." (shared by exasim_run and exasim_mc so both front doors
/// accept the same workloads). `ranks` selects scale-dependent defaults
/// (heat3d drops to skeleton compute above 4096 ranks, exactly as exasim_run
/// always did). Throws std::invalid_argument for an unknown name, a key the
/// app does not read, or a value that is not an integer in the key's range.
vmpi::AppMain make_app(const std::string& name, const std::string& params, int ranks);

/// The `--app-params` section of usage text, generated from the key lists
/// make_app checks against.
std::string app_params_help();

}  // namespace exasim::apps
