/**
 * @file
 * capo-bench: the experiment multiplexer. The one binary that lists
 * every registered reproduction experiment and runs any of them by
 * name — `capo-bench list`, `capo-bench run fig01_lbo_geomean
 * --full`.
 */

#include "report/experiment.hh"

int
main(int argc, char **argv)
{
    return capo::report::benchMain(argc, argv);
}
