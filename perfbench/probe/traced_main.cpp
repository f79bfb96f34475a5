// The ethsm CLI entry point, linked with layer_spans.cpp into ethsm_traced.
#include "api/cli.h"

int main(int argc, char** argv) { return ethsm::api::cli_main(argc, argv); }
