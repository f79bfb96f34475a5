// The unified `ethsm` CLI: list/print/run experiment presets and spec files,
// inspect and GC checkpoint directories. All logic lives in api/cli.cpp so
// the tests drive the same code.

#include "api/cli.h"

int main(int argc, char** argv) { return ethsm::api::cli_main(argc, argv); }
