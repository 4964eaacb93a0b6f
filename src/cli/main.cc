#include "cli/commands.h"

int
main(int argc, char **argv)
{
    return gpushield::cli::run(argc, argv);
}
