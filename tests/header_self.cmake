# pargpu_header_self(<target> <root>...): every *.hh under each root
# must compile on its own. Writes one translation unit per header,
# `#include "<path relative to its root>"`, into the build directory
# and compiles them all as the OBJECT library <target>, which is part of
# `all`: a header that needs an include it does not make fails the
# build, each header is compiled once, in parallel and incrementally.
# The roots are the include directories, so a header sees only what it
# includes itself. CONFIGURE_DEPENDS re-globs when a header is added.
function(pargpu_header_self target)
    set(units)
    foreach(root IN LISTS ARGN)
        file(GLOB_RECURSE headers CONFIGURE_DEPENDS RELATIVE ${root}
             ${root}/*.hh)
        foreach(header IN LISTS headers)
            # The unit's text follows from its path, so an existing one
            # is current; rewriting it would recompile it every
            # configure.
            set(unit ${CMAKE_CURRENT_BINARY_DIR}/${target}/${header}.cc)
            if(NOT EXISTS ${unit})
                file(WRITE ${unit} "#include \"${header}\"\n")
            endif()
            list(APPEND units ${unit})
        endforeach()
    endforeach()
    add_library(${target} OBJECT ${units})
    target_include_directories(${target} PRIVATE ${ARGN})
endfunction()
